package kb

import (
	"math"
	"strings"
	"testing"

	"rtecgen/internal/lang"
)

// termDraw reads small terms off fuzz bytes. Every kind a first argument can
// be is reachable, and numbers come as ints and floats over the same values,
// so 5 and 5.0 (and 0 and -0.0, inside compounds too) meet often.
type termDraw struct{ data []byte }

func (d *termDraw) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	c := d.data[0]
	d.data = d.data[1:]
	return c
}

func (d *termDraw) term(depth int) *lang.Term {
	c := d.byte()
	v := int(c >> 3)
	switch c % 8 {
	case 1:
		return lang.NewInt(int64(v % 8))
	case 2:
		return lang.NewFloat(float64(v % 8))
	case 3:
		return lang.NewFloat([]float64{math.Copysign(0, -1), 0.5, 5.5, 1e300}[v%4])
	case 4:
		return lang.NewStr([]string{"a", "5", "f(a)"}[v%3])
	case 5:
		if depth > 0 {
			args := []*lang.Term{d.term(depth - 1)}
			if v&2 != 0 {
				args = append(args, d.term(depth-1))
			}
			return lang.NewCompound([]string{"f", "g"}[v%2], args...)
		}
	case 6:
		if depth > 0 {
			elems := make([]*lang.Term, v%3)
			for i := range elems {
				elems[i] = d.term(depth - 1)
			}
			return lang.NewList(elems...)
		}
	}
	return lang.NewAtom([]string{"a", "b", "slow", "fast"}[v%4])
}

// number draws an int or a float of the values term draws.
func (d *termDraw) number() *lang.Term {
	c := d.byte()
	if c%2 == 0 {
		return lang.NewInt(int64(c>>1) % 8)
	}
	return lang.NewFloat(float64((c >> 1) % 8))
}

// FuzzMatchEqualsScan: the first-argument index is only an access path.
// Whatever the facts and the goal — first argument unbound, a constant as
// written, a number, or bound at run time — Match and a Lookup made for the
// goal hand out, in order, exactly the facts of the predicate that Unify
// accepts when tried one by one in insertion order.
//
// Input: a fact count, then per fact a predicate byte (p, or q when it is 3
// mod 4) and two terms; then a goal mode byte (0 unbound, 1 constant, 2
// number, 3 bound at run time) followed by the first argument or, for mode
// 3, the term it is bound to; then a byte choosing the second argument (even:
// a variable, odd: a term).
func FuzzMatchEqualsScan(f *testing.F) {
	// limit(5.0, slow), limit(7, fast) against limit(5, X), limit(7.0, X),
	// limit(5, X) as a constant and limit(N, X) with N bound to 5.
	facts := []byte{1, 0, 42, 16, 0, 57, 24}
	for _, g := range [][]byte{{2, 10, 0}, {2, 15, 0}, {1, 41, 0}, {3, 41, 0}, {0, 0}} {
		f.Add(append(append([]byte(nil), facts...), g...))
	}
	// p(f(5), slow), p(f(5.0), fast) against p(f(5), Y).
	f.Add([]byte{1, 0, 5, 41, 16, 0, 5, 42, 24, 1, 5, 41, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &termDraw{data: data}
		k := New()
		var stored []*lang.Term
		seen := map[string]bool{}
		for n := int(d.byte()%8) + 1; n > 0; n-- {
			pred := "p"
			if d.byte()%4 == 3 {
				pred = "q"
			}
			fact := lang.NewCompound(pred, d.term(2), d.term(2))
			if err := k.AddFact(fact); err != nil {
				t.Fatal(err)
			}
			if pred == "p" && !seen[fact.String()] {
				seen[fact.String()] = true
				stored = append(stored, fact)
			}
		}

		mode := d.byte() % 4
		first, bound := lang.NewVar("X"), (*lang.Term)(nil)
		switch mode {
		case 1:
			first = d.term(2)
		case 2:
			first = d.number()
		case 3:
			bound = d.term(2)
		}
		second := lang.NewVar("Y")
		if d.byte()%2 == 1 {
			second = d.term(2)
		}
		var vt lang.VarTable
		g := vt.Number(lang.NewCompound("p", first, second))
		var b lang.Bindings
		b.Reset(vt.Len())
		l := k.Lookup(g) // made before the run-time binding, as a compiled rule's is
		if bound != nil {
			b.Unify(g.Args[0], bound)
		}
		mark := b.Mark()
		answer := func(out *[]string) func() {
			return func() { *out = append(*out, b.Resolve(g).String()) }
		}

		var want, got, compiled []string
		for _, fact := range stored {
			if m := b.Mark(); b.Unify(g, fact) {
				answer(&want)()
				b.Undo(m)
			}
		}
		k.Match(g, &b, answer(&got))
		l.Match(g, &b, answer(&compiled))
		if b.Mark() != mark {
			t.Fatalf("matching left %d bindings behind", b.Mark()-mark)
		}
		w := strings.Join(want, " | ")
		if s := strings.Join(got, " | "); s != w {
			t.Fatalf("Match(%s) over %v:\n got %s\nwant %s", b.Resolve(g), stored, s, w)
		}
		if s := strings.Join(compiled, " | "); s != w {
			t.Fatalf("Lookup(%s).Match over %v:\n got %s\nwant %s", b.Resolve(g), stored, s, w)
		}
	})
}
