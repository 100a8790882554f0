package parser

import "testing"

// FuzzParseEventDescription: the parser ingests raw LLM output, so it must
// never panic on arbitrary text — it returns positioned errors instead.
func FuzzParseEventDescription(f *testing.F) {
	seeds := []string{
		"",
		"f(a).",
		"initiatedAt(withinArea(Vl, AreaType)=true, T) :-\n    happensAt(entersArea(Vl, AreaID), T),\n    areaType(AreaID, AreaType).",
		"holdsFor(f(X)=true, I) :- holdsFor(g(X)=true, I1), union_all([I1], I).",
		"f(a :- b.",
		"f(((((((",
		"42.",
		"X.",
		"not not not f.",
		"f(a) :- X > 1 + 2 * 3.",
		"'quoted atom'(a).",
		`"string only"`,
		"% comment only",
		"f(-1.5e10).",
		"a:-b,c,d.",
		"f(a,).",
		"[1,2,3].",
		"f(\\=).",
		"f(a)) .",
		"初始化(船).",
		// Edge inputs found while building the static analyzer: nested and
		// empty interval operators, negation shapes, and empty bodies.
		"holdsFor(f(X)=true, I) :- union_all([intersect_all([I1], I2)], I).",
		"holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), holdsFor(c(X)=true, I2), relative_complement_all(I1, [I2], I).",
		"holdsFor(f(X)=true, I) :- union_all([], I).",
		"initiatedAt(a(X)=true, T) :- not holdsAt(b(X)=true, T), not(c).",
		"f(a) :- .",
		":- f(a).",
		// Garbled-reply corpus: a model reply is input from outside the
		// program and may arrive corrupted or truncated in these shapes.
		"initiatedAt(trawling(Vl)=true, T) ;-\n    happensAt(change_in_heading(Vl), T).",
		"initiatedAt(trawling(Vl)=true, T) := happensAt(change_in_heading(Vl), T).",
		"initiatedAt(trawling(Vl=true, T :-\n    happensAt(change_in_heading(Vl, T.",
		"initiatedAt(trawling(Vl)=true�, T) :-\n    happensAt(change_in_heading(Vl)�, T).",
		"initiatedAt(trawling(Vl)=true, T) :-\n    happensAt(chan",
		"terminatedAt(trawling(Vl)=true, T) :-\n    happensAt(gap_st\xff\xfe",
		"Answer:\n\ninitiatedAt(f(X)=true, T) :-\n    happensAt(e(X)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ed, err := ParseEventDescription(src)
		if err == nil && ed == nil {
			t.Fatal("nil event description without error")
		}
		// Whatever parses must print and re-parse (round-trip stability).
		if err == nil {
			printed := ed.String()
			if _, err2 := ParseEventDescription(printed); err2 != nil {
				t.Fatalf("round trip failed for %q -> %q: %v", src, printed, err2)
			}
		}
	})
}

// FuzzParseTerm mirrors the clause fuzzer at the term level.
func FuzzParseTerm(f *testing.F) {
	for _, s := range []string{"f(a)", "X", "1+2", "[a, [b, c]]", "f(g(h(i(j))))", "-", "(((", "a=b=c"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		term, err := ParseTerm(src)
		if err == nil {
			if term == nil {
				t.Fatal("nil term without error")
			}
			if _, err2 := ParseTerm(term.String()); err2 != nil {
				t.Fatalf("round trip failed for %q -> %q: %v", src, term, err2)
			}
		}
	})
}
