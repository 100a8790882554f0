package eval

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"rtecgen/internal/prompt"
)

func TestForEachOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 37
		got := make([]int, n)
		forEachOrdered(workers, n, func(i int) { got[i] = i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	// n = 0 must not call fn or hang.
	forEachOrdered(4, 0, func(int) { t.Fatal("fn called for n=0") })
}

func TestForEachOrderedPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || s != "boom 5" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	forEachOrdered(4, 10, func(i int) {
		if i == 5 {
			panic("boom 5")
		}
	})
}

// figuresFingerprint renders everything Figure 2a reports about a row set.
func figuresFingerprint(rows []Row) string {
	var out string
	for _, r := range rows {
		out += fmt.Sprintf("%s %s %.9f", r.Model, r.Scheme, r.Overall)
		for _, k := range ActivityKeys {
			out += fmt.Sprintf(" %s=%.9f", k, r.PerActivity[k])
		}
		out += "\n"
	}
	return out
}

// TestGenerateAllWorkersDeterministic: the concurrent generation fan-out
// produces exactly the rows the sequential run produces — every model/scheme
// session is independent and results are collected in input order.
func TestGenerateAllWorkersDeterministic(t *testing.T) {
	models := allModels()
	_, seqAll, err := Figure2aWith(nil, models, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, parAll, err := Figure2aWith(nil, models, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := figuresFingerprint(seqAll), figuresFingerprint(parAll); a != b {
		t.Fatalf("parallel generation differs from sequential:\n--- workers=1\n%s\n--- workers=8\n%s", a, b)
	}
}

// withWorkers returns a view of the shared testbed that fans its jobs out
// over n workers.
func withWorkers(tb *Testbed, n int) *Testbed {
	view := *tb
	view.cfg.Workers = n
	return &view
}

// TestFigure2cWorkersDeterministic: concurrent candidate evaluation against
// the shared testbed reports the same accuracy rows in the same order.
func TestFigure2cWorkersDeterministic(t *testing.T) {
	_, _, cor := figures(t)
	tb := testbed(t)
	seq, err := Figure2c(tb, cor)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Figure2c(withWorkers(tb, 8), cor)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Fatalf("Workers=8 Figure2c rows differ:\n%v\nvs\n%v", got, seq)
	}
}

// countingModel counts the chat turns a model is asked for.
type countingModel struct {
	prompt.Model
	chats *atomic.Int64
}

func (m countingModel) Chat(history []prompt.Message, user string) (string, error) {
	m.chats.Add(1)
	return m.Model.Chat(history, user)
}

// TestFigureRefineWorkersDeterministic: the refine chains fanned out over
// the testbed's workers report the rows of the sequential run, in input
// order — per-round F1 and critiqued activities included — and a model name
// nobody registered fails the call before any chain has started.
func TestFigureRefineWorkersDeterministic(t *testing.T) {
	best, _, _ := figures(t)
	tb := testbed(t)
	var chats atomic.Int64
	var models []prompt.Model
	for _, m := range allModels() {
		models = append(models, countingModel{m, &chats})
	}
	seq, err := FigureRefine(nil, models, best, DefaultRefineBudget, withWorkers(tb, 1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := FigureRefine(nil, models, best, DefaultRefineBudget, withWorkers(tb, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(best) {
		t.Fatalf("%d refine rows for %d models", len(seq), len(best))
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Workers=8 refine rows differ:\n%+v\nvs\n%+v", par, seq)
	}
	for i, row := range seq {
		if row.Model != best[i].Model {
			t.Fatalf("row %d is %s, want %s: rows out of input order", i, row.Model, best[i].Model)
		}
		for _, r := range row.Rounds {
			if r.F1 < 0 {
				t.Fatalf("%s round %d has no F1: the testbed was not used", row.Label(), r.Round)
			}
		}
	}

	chats.Store(0)
	unknown := append(append([]Row(nil), best...), Row{Model: "GPT-17"})
	if _, err := FigureRefine(nil, models, unknown, DefaultRefineBudget, withWorkers(tb, 8)); err == nil {
		t.Fatal("a model name nobody registered must fail")
	}
	if n := chats.Load(); n != 0 {
		t.Fatalf("%d chat turns ran before the unknown model name was rejected", n)
	}
}
