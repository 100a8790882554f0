package parser

import (
	"strings"
	"testing"

	"rtecgen/internal/lang"
)

func TestParseTermBasics(t *testing.T) {
	cases := []struct{ src, want string }{
		{"foo", "foo"},
		{"Foo", "Foo"},
		{"_", "_Anon1"},
		{"42", "42"},
		{"3.5", "3.5"},
		{"-7", "-7"},
		{"-2.5", "-2.5"},
		{`"hi there"`, `"hi there"`},
		{"f(a, B, 1)", "f(a, B, 1)"},
		{"[1, 2, 3]", "[1, 2, 3]"},
		{"[]", "[]"},
		{"f(g(h(X)))", "f(g(h(X)))"},
		{"'quoted atom'", "quotedatom"}, // spaces dropped by quoting? see below
	}
	for _, c := range cases[:len(cases)-1] {
		got, err := ParseTerm(c.src)
		if err != nil {
			t.Errorf("ParseTerm(%q): %v", c.src, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("ParseTerm(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	// Quoted atoms preserve their inner text verbatim.
	got, err := ParseTerm("'quoted atom'")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != lang.Atom || got.Functor != "quoted atom" {
		t.Fatalf("quoted atom = %v %q", got.Kind, got.Functor)
	}
}

func TestParseInfixOperators(t *testing.T) {
	cases := []struct{ src, want string }{
		{"X=true", "X=true"},
		{"withinArea(Vl, AreaType)=true", "withinArea(Vl, AreaType)=true"},
		{"Speed > Max", "Speed > Max"},
		{"Speed =< Max", "Speed =< Max"},
		{"A =:= B", "A =:= B"},
		{"A =\\= B", "A =\\= B"},
		{"A \\= B", "A \\= B"},
		{"A + B * C", "A + B * C"},
		{"(A + B) * C", "(A + B) * C"},
		{"A - B - C", "A - B - C"}, // left associative
		{"Speed > Min + 2.5", "Speed > Min + 2.5"},
	}
	for _, c := range cases {
		got, err := ParseTerm(c.src)
		if err != nil {
			t.Errorf("ParseTerm(%q): %v", c.src, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("ParseTerm(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	// Associativity check: A - B - C is (A-B)-C.
	tm, err := ParseTerm("A - B - C")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Args[0].Kind != lang.Compound || tm.Args[0].Functor != "-" {
		t.Fatalf("left operand = %s, want (A - B)", tm.Args[0])
	}
	// Precedence: A + B * C is A + (B*C).
	tm, err = ParseTerm("A + B * C")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Functor != "+" || tm.Args[1].Functor != "*" {
		t.Fatalf("precedence wrong: %s", tm)
	}
}

func TestParseRule1Paper(t *testing.T) {
	src := `initiatedAt(withinArea(Vl, AreaType)=true, T) :-
	    happensAt(entersArea(Vl, AreaID), T),
	    areaType(AreaID, AreaType).`
	c, err := ParseClause(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != lang.KindInitiatedAt {
		t.Fatalf("kind = %v", c.Kind())
	}
	if len(c.Body) != 2 {
		t.Fatalf("body length = %d", len(c.Body))
	}
	_, fl := c.HeadFVP()
	if fl.Indicator() != "withinArea/2" {
		t.Fatalf("fluent = %s", fl.Indicator())
	}
}

func TestParseHoldsForWithConstructs(t *testing.T) {
	src := `holdsFor(underWay(Vessel)=true, I) :-
	    holdsFor(movingSpeed(Vessel)=below, I1),
	    holdsFor(movingSpeed(Vessel)=normal, I2),
	    holdsFor(movingSpeed(Vessel)=above, I3),
	    union_all([I1, I2, I3], I).`
	c, err := ParseClause(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != lang.KindHoldsFor {
		t.Fatalf("kind = %v", c.Kind())
	}
	last := c.Body[3].Atom
	if last.Functor != "union_all" || last.Args[0].Kind != lang.List || last.Args[0].Arity() != 3 {
		t.Fatalf("last condition = %s", last)
	}
}

func TestParseNegation(t *testing.T) {
	src := `initiatedAt(gap(Vl)=farFromPorts, T) :-
	    happensAt(gap_start(Vl), T),
	    not holdsAt(withinArea(Vl, nearPorts)=true, T).`
	c, err := ParseClause(src)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Body[1].Neg {
		t.Fatal("second condition must be negated")
	}
	if c.Body[1].Atom.Functor != "holdsAt" {
		t.Fatalf("negated atom = %s", c.Body[1].Atom)
	}
	// Compound form not(...) normalises identically.
	src2 := strings.Replace(src, "not holdsAt", "not(holdsAt", 1)
	src2 = strings.Replace(src2, "true, T).", "true, T)).", 1)
	c2, err := ParseClause(src2)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Body[1].Neg || c2.Body[1].Atom.Functor != "holdsAt" {
		t.Fatalf("compound not(...) not normalised: %s", c2.Body[1])
	}
}

func TestParseEventDescriptionMultipleClausesAndComments(t *testing.T) {
	src := `
% Declarations.
inputEvent(entersArea(_, _)).
simpleFluent(withinArea(_, _)=true).

% Rule (1).
initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

areaType(a1, fishing).
`
	ed, err := ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ed.Clauses) != 4 {
		t.Fatalf("clauses = %d, want 4", len(ed.Clauses))
	}
	if len(ed.Rules()) != 1 || len(ed.Facts()) != 3 {
		t.Fatalf("rules/facts = %d/%d", len(ed.Rules()), len(ed.Facts()))
	}
}

func TestParseAnonymousVarsAreDistinct(t *testing.T) {
	tm, err := ParseTerm("f(_, _)")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Args[0].Functor == tm.Args[1].Functor {
		t.Fatal("anonymous variables must be distinct")
	}
}

func TestParseErrorsCarryPosition(t *testing.T) {
	cases := []string{
		"f(a",                 // unterminated args
		"f(a) :- .",           // missing literal
		"f(a)",                // missing period
		"42 :- g.",            // non-callable head
		"f(a). trailing",      // handled by ParseClause only
		"f(@).",               // bad character
		`f(").`,               // unterminated string
		"'unterminated",       // unterminated quoted atom
		"f(a,).",              // dangling comma
		"holdsFor(f=v, I) :-", // EOF in body
	}
	for _, src := range cases {
		if _, err := ParseClause(src); err == nil {
			t.Errorf("ParseClause(%q) succeeded, want error", src)
		}
	}
	_, err := ParseClause("f(a,\n   @).")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.HasPrefix(err.Error(), "2:") {
		t.Fatalf("error position = %q, want line 2", err.Error())
	}
}

// TestRoundTrip verifies print-parse round-tripping on a corpus of clauses.
func TestRoundTrip(t *testing.T) {
	srcs := []string{
		"initiatedAt(withinArea(Vl, AreaType)=true, T) :-\n    happensAt(entersArea(Vl, AreaID), T),\n    areaType(AreaID, AreaType).",
		"holdsFor(anchoredOrMoored(Vl)=true, I) :-\n    holdsFor(stopped(Vl)=farFromPorts, Isf),\n    holdsFor(withinArea(Vl, anchorage)=true, Ia),\n    intersect_all([Isf, Ia], Isfa),\n    holdsFor(stopped(Vl)=nearPorts, Isn),\n    union_all([Isfa, Isn], I).",
		"initiatedAt(highSpeedNearCoast(Vl)=true, T) :-\n    happensAt(velocity(Vl, Speed, Cog, Hdg), T),\n    thresholds(hcNearCoastMax, Max),\n    Speed > Max,\n    holdsAt(withinArea(Vl, nearCoast)=true, T).",
		"terminatedAt(f(X)=v, T) :-\n    happensAt(e(X), T),\n    not holdsAt(g(X)=true, T).",
	}
	for _, src := range srcs {
		c1, err := ParseClause(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := c1.String()
		c2, err := ParseClause(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if c2.String() != printed {
			t.Fatalf("round trip mismatch:\n%s\nvs\n%s", printed, c2.String())
		}
	}
}

// TestStringRoundTrip: a string constant keeps its text in the term's
// Functor; quotes, backslashes, escapes and non-ASCII text parse to the
// decoded text, print through strconv.Quote and parse back Equal, and never
// read as the atom of the same name.
func TestStringRoundTrip(t *testing.T) {
	for _, c := range []struct{ src, text string }{
		{`""`, ""},
		{`"v1"`, "v1"},
		{`"say \"hi\""`, `say "hi"`},
		{`"back\\slash"`, `back\slash`},
		{`"tab\there\nnewline"`, "tab\there\nnewline"},
		{`"caf\u00e9 ☃"`, "café ☃"},
		{`"it's"`, "it's"},
	} {
		term, err := ParseTerm(c.src)
		if err != nil {
			t.Fatalf("parse %s: %v", c.src, err)
		}
		if term.Kind != lang.Str || term.Functor != c.text {
			t.Fatalf("parse %s = %v %q, want string %q", c.src, term.Kind, term.Functor, c.text)
		}
		again := MustParseTerm(term.String())
		if !again.Equal(term) || again.String() != term.String() {
			t.Errorf("round trip of %s: %s then %s", c.src, term, again)
		}
		fact := MustParseClause("name(v1, " + term.String() + ").")
		if got := fact.Head.Args[1]; !got.Equal(term) || got.Equal(lang.NewAtom(c.text)) {
			t.Errorf("%s as an argument parses to %v", c.src, got)
		}
	}
}

func TestMustHelpersPanicOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseClause did not panic")
		}
	}()
	MustParseClause("bad(")
}

func TestParseThresholdComparisonChain(t *testing.T) {
	src := `initiatedAt(movingSpeed(Vl)=normal, T) :-
    happensAt(velocity(Vl, Speed, CourseOverGround, Heading), T),
    vesselType(Vl, Type),
    typeSpeed(Type, Min, Max, Avg),
    Speed >= Min,
    Speed =< Max.`
	c, err := ParseClause(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Body) != 5 {
		t.Fatalf("body = %d conditions", len(c.Body))
	}
	if c.Body[3].Atom.Functor != ">=" || c.Body[4].Atom.Functor != "=<" {
		t.Fatalf("comparisons not parsed: %s, %s", c.Body[3].Atom, c.Body[4].Atom)
	}
}

func TestMustHelpersSucceed(t *testing.T) {
	if MustParseTerm("f(a)").Indicator() != "f/1" {
		t.Fatal("MustParseTerm wrong")
	}
	if len(MustParseEventDescription("a(b). c(d).").Clauses) != 2 {
		t.Fatal("MustParseEventDescription wrong")
	}
}

func TestMustParseTermPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseTerm did not panic")
		}
	}()
	MustParseTerm("((")
}

func TestMustParseEventDescriptionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseEventDescription did not panic")
		}
	}()
	MustParseEventDescription("f(a")
}

func TestParseTermTrailingInput(t *testing.T) {
	if _, err := ParseTerm("f(a) extra"); err == nil {
		t.Fatal("trailing input accepted")
	}
}

func TestClausePositions(t *testing.T) {
	src := "% leading comment\n" +
		"f(a).\n" +
		"\n" +
		"initiatedAt(withinArea(Vl, AreaType)=true, T) :-\n" +
		"    happensAt(entersArea(Vl, AreaID), T),\n" +
		"    not areaType(AreaID, AreaType).\n"
	ed, err := ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ed.Clauses) != 2 {
		t.Fatalf("got %d clauses", len(ed.Clauses))
	}
	if got := ed.Clauses[0].Pos; got != (lang.Position{Line: 2, Col: 1}) {
		t.Errorf("fact position = %v, want 2:1", got)
	}
	rule := ed.Clauses[1]
	if got := rule.Pos; got != (lang.Position{Line: 4, Col: 1}) {
		t.Errorf("rule position = %v, want 4:1", got)
	}
	if got := rule.Head.Pos; got != rule.Pos {
		t.Errorf("head position = %v, want %v", got, rule.Pos)
	}
	// The head FVP 'withinArea(..)=true' starts at the fluent term.
	if got := rule.Head.Args[0].Pos; got != (lang.Position{Line: 4, Col: 13}) {
		t.Errorf("head FVP position = %v, want 4:13", got)
	}
	if got := rule.Body[0].Atom.Pos; got != (lang.Position{Line: 5, Col: 5}) {
		t.Errorf("first literal position = %v, want 5:5", got)
	}
	// A negated literal's atom points at the atom, past the 'not'.
	if got := rule.Body[1].Atom.Pos; got != (lang.Position{Line: 6, Col: 9}) {
		t.Errorf("negated literal position = %v, want 6:9", got)
	}
}

// TestClausePositionsSurviveRoundTrip: printing an event description and
// re-parsing it must yield clauses that again carry real positions that
// agree with the printed layout.
func TestClausePositionsSurviveRoundTrip(t *testing.T) {
	src := "f(a).\ng(X) :- f(X), not h(X).\nholdsFor(p(V)=true, I) :- holdsFor(q(V)=true, I1), union_all([I1], I)."
	ed, err := ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := ed.String()
	re, err := ParseEventDescription(printed)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(printed, "\n")
	last := lang.Position{}
	for i, c := range re.Clauses {
		if !c.Pos.IsValid() {
			t.Fatalf("clause %d lost its position after round trip", i)
		}
		if !last.Before(c.Pos) {
			t.Fatalf("clause %d position %v not after previous %v", i, c.Pos, last)
		}
		last = c.Pos
		// The clause's head text must actually start at the recorded spot.
		line := lines[c.Pos.Line-1]
		head := c.Head.Functor
		if got := line[c.Pos.Col-1:]; !strings.HasPrefix(got, head) {
			t.Errorf("clause %d: position %v points at %q, want head %q", i, c.Pos, got, head)
		}
		for _, l := range c.Body {
			if !l.Atom.Pos.IsValid() {
				t.Errorf("clause %d: body literal %s lost its position", i, l.Atom)
			}
		}
	}
}
