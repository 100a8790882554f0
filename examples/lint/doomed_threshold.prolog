% The paper's "missing condition" error (Section 5.2), on the gold
% definition of movingSpeed: one terminatedAt rule has lost the
% thresholds(movingMin, MovingMin) lookup, so its comparison
% 'Speed =< MovingMin' has an operand nothing binds, and one initiatedAt rule
% has lost vesselType(Vl, Type), so it classifies a vessel against the service
% band of every vessel type. The first defect is one both diagnoses see:
%
%   go run ./cmd/rteclint -domain maritime examples/lint/doomed_threshold.prolog
%
% reports the unbound operand statically (R007), and the engine raises a
% runtime warning at every velocity event the rule is anchored on — the only
% committed input on which the streaming, delta and resume paths carry
% runtime warnings (ci.sh "defective-definition gate" runs it, with a
% scenario's background knowledge appended, in batch, streaming and
% -no-delta streaming and requires identical CSVs and warning lines). The
% second is silent: no diagnostic, no warning, wrong intervals.

inputEvent(velocity(_, _, _, _)).
inputEvent(gap_start(_)).

initiatedAt(movingSpeed(Vl)=below, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    thresholds(movingMin, MovingMin),
    Speed > MovingMin,
    vesselType(Vl, Type),
    typeSpeed(Type, Min, Max),
    Speed < Min.

initiatedAt(movingSpeed(Vl)=normal, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    vesselType(Vl, Type),
    typeSpeed(Type, Min, Max),
    Speed >= Min,
    Speed =< Max.

initiatedAt(movingSpeed(Vl)=above, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    typeSpeed(Type, Min, Max),
    Speed > Max.

terminatedAt(movingSpeed(Vl)=below, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    thresholds(movingMin, MovingMin),
    Speed =< MovingMin.

terminatedAt(movingSpeed(Vl)=normal, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    Speed =< MovingMin.

terminatedAt(movingSpeed(Vl)=above, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    thresholds(movingMin, MovingMin),
    Speed =< MovingMin.

terminatedAt(movingSpeed(Vl)=below, T) :-
    happensAt(gap_start(Vl), T).

terminatedAt(movingSpeed(Vl)=normal, T) :-
    happensAt(gap_start(Vl), T).

terminatedAt(movingSpeed(Vl)=above, T) :-
    happensAt(gap_start(Vl), T).
