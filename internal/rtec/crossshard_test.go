package rtec

import (
	"fmt"
	"math/rand"

	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
)

// crossShardED is an event description whose fluents of several entities
// feed each other across strata: the pair fluent is anchored on two-entity
// events but conditioned on the single-entity p fluent, and the top-level
// busy fluent unions intervals produced by both.
const crossShardED = `
inputEvent(p_start(_)).
inputEvent(p_end(_)).
inputEvent(q_start(_, _)).
inputEvent(q_end(_, _)).

initiatedAt(p(X)=true, T) :- happensAt(p_start(X), T).
terminatedAt(p(X)=true, T) :- happensAt(p_end(X), T).

initiatedAt(pair(X, Y)=true, T) :-
    happensAt(q_start(X, Y), T),
    holdsAt(p(X)=true, T).
terminatedAt(pair(X, Y)=true, T) :- happensAt(q_end(X, Y), T).
terminatedAt(pair(X, Y)=true, T) :- happensAt(p_end(X), T).

holdsFor(busy(X)=true, I) :-
    holdsFor(p(X)=true, Ip),
    holdsFor(pair(X, b1)=true, I1),
    union_all([Ip, I1], I).
`

// genCrossShardStream derives a random event stream over crossShardED's
// input events, over six first-argument entities and three second ones.
func genCrossShardStream(r *rand.Rand, horizon int64) stream.Stream {
	as := []string{"a1", "a2", "a3", "a4", "a5", "a6"}
	bs := []string{"b1", "b2", "b3"}
	var s stream.Stream
	n := 10 + r.Intn(50)
	for i := 0; i < n; i++ {
		t := int64(r.Intn(int(horizon)))
		a := as[r.Intn(len(as))]
		var src string
		switch r.Intn(4) {
		case 0:
			src = fmt.Sprintf("p_start(%s)", a)
		case 1:
			src = fmt.Sprintf("p_end(%s)", a)
		case 2:
			src = fmt.Sprintf("q_start(%s, %s)", a, bs[r.Intn(len(bs))])
		default:
			src = fmt.Sprintf("q_end(%s, %s)", a, bs[r.Intn(len(bs))])
		}
		s = append(s, stream.Event{Time: t, Atom: parser.MustParseTerm(src)})
	}
	return s
}
