package eval

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rtecgen/internal/correct"
	"rtecgen/internal/lang"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/rtec"
)

// goldGen is the gold standard as a generated event description: the gold
// rules of every curriculum activity.
func goldGen() *prompt.GeneratedED {
	gen := &prompt.GeneratedED{ModelName: "gold"}
	gold := maritime.GoldED()
	for _, act := range maritime.Curriculum {
		gen.Results = append(gen.Results, prompt.ActivityResult{
			Request: prompt.ActivityRequest{Key: act.Key, Name: act.Name},
			Clauses: maritime.RulesForActivity(gold, act),
		})
	}
	return gen
}

// recognitionOf renders what rec recognised of the fluents in inds: per
// fluent and FVP, the intervals.
func recognitionOf(rec *rtec.Recognition, inds map[string][]*lang.Clause) string {
	byFluent := rec.ByFluent()
	var names []string
	for ind := range inds {
		names = append(names, ind)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, ind := range names {
		for _, key := range byFluent[ind] {
			fmt.Fprintf(&b, "%s %v\n", key, rec.IntervalsOfKey(key))
		}
	}
	return b.String()
}

// TestDemandIsExact: Evaluate recognises only the part of a candidate its
// score reads (rtec.Demand). Over the gold standard, Figure 2b's rows and
// each refine chain's first and final event descriptions, the demanded
// recognition equals the whole one on every fluent the demanded description
// defines, and Evaluate returns the row the whole recognition scores.
func TestDemandIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the refine chains and 20 event descriptions twice over the testbed")
	}
	best, _, cor := figures(t)
	tb := testbed(t)
	refined, err := FigureRefine(nil, allModels(), best, DefaultRefineBudget, tb)
	if err != nil {
		t.Fatal(err)
	}
	type candidate struct {
		label string
		gen   *prompt.GeneratedED
	}
	cands := []candidate{{"gold", goldGen()}}
	for _, r := range cor {
		cands = append(cands, candidate{r.Label(), r.Corrected.Gen})
	}
	domain := maritime.PromptDomain()
	for _, b := range best {
		// What RefineWith evaluates in its first round.
		first := correct.AutoFix(&prompt.GeneratedED{ModelName: b.Gen.ModelName, Scheme: b.Gen.Scheme, Results: b.Gen.Results}, domain)
		cands = append(cands, candidate{b.Label() + " round 1", first.Gen})
	}
	for _, r := range refined {
		cands = append(cands, candidate{r.Label() + " final", r.Final})
	}

	cut := 0
	for _, c := range cands {
		names, wanted := scoredFluents(c.gen)
		whole := c.gen.ED()
		part := demanded(whole, wanted)
		if len(part.Clauses) < len(whole.Clauses) {
			cut++
		}
		wholeRec, err := tb.run(whole, false)
		if err != nil {
			t.Fatal(err)
		}
		partRec, err := tb.run(part, false)
		if err != nil {
			t.Fatal(err)
		}
		closure := part.RulesByFluent()
		if got, want := recognitionOf(partRec, closure), recognitionOf(wholeRec, closure); got != want {
			t.Errorf("%s: the demanded recognition differs from the whole one:\n%s\nwhole:\n%s", c.label, got, want)
		}
		row, err := tb.Evaluate(c.gen)
		if err != nil {
			t.Fatal(err)
		}
		if want := tb.score(c.gen.Label(), names, wanted, wholeRec); !reflect.DeepEqual(row, want) {
			t.Errorf("%s: Evaluate scores %+v, the whole recognition %+v", c.label, row, want)
		}
	}
	if cut == 0 {
		t.Error("demand kept every clause of every candidate: nothing was compared")
	}
}

// TestDemandKeepsRunTimeReads: a scored fluent whose holdsAt condition names
// its fluent only at run time can read any fluent, so the candidate is
// evaluated whole; the same candidate with the fluent named loses the
// definition nothing scored reads.
func TestDemandKeepsRunTimeReads(t *testing.T) {
	const loitering = `
initiatedAt(loitering(Vl)=true, T) :-
    happensAt(stop_start(Vl), T),
    holdsAt(%s=true, T).

terminatedAt(loitering(Vl)=true, T) :-
    happensAt(stop_end(Vl), T).

initiatedAt(unread(Vl)=true, T) :-
    happensAt(stop_start(Vl), T).
`
	for _, c := range []struct {
		fluent string
		whole  bool
	}{{"F", true}, {"underWay(Vl)", false}} {
		gen := genWith(t, "l", fmt.Sprintf(loitering, c.fluent))
		_, wanted := scoredFluents(gen)
		ed := gen.ED()
		part := demanded(ed, wanted)
		if whole := part == ed; whole != c.whole {
			t.Errorf("holdsAt(%s=true, T): loaded whole %v, want %v", c.fluent, whole, c.whole)
		}
		if _, ok := part.RulesByFluent()["unread/1"]; ok == !c.whole {
			t.Errorf("holdsAt(%s=true, T): unread/1 kept %v, want %v", c.fluent, ok, c.whole)
		}
	}
}
