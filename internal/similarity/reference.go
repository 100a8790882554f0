package similarity

import (
	"fmt"
	"sync"

	"rtecgen/internal/lang"
)

// Reference is the prepared first argument of Distance: a rule set — the
// gold standard, typically — that many candidate rule sets are scored
// against. It derives what Definition 4.12 reads of its own rules once, and
// keeps, per distinct candidate rule text, that rule's row of distances to
// every reference rule, so a rule pair is scored once however many
// candidate sets, or subsets of the reference, it turns up in. The table
// lives as long as the Reference. A Reference is safe for concurrent use.
type Reference struct {
	clauses []*lang.Clause
	rules   []rule
	index   map[*lang.Clause]int

	mu   sync.Mutex
	rows map[string][]float64 // candidate rule text → distance to rules[i]
}

// NewReference prepares rules as the reference side of Distance. The rules
// must not be modified afterwards.
func NewReference(rules []*lang.Clause) *Reference {
	r := &Reference{
		clauses: rules,
		rules:   make([]rule, len(rules)),
		index:   make(map[*lang.Clause]int, len(rules)),
		rows:    map[string][]float64{},
	}
	for i, c := range rules {
		r.rules[i] = prepareRule(c)
		r.index[c] = i
	}
	return r
}

// Rules returns the reference rules, the ones a subset passed to Distance
// is drawn from.
func (r *Reference) Rules() []*lang.Clause { return r.clauses }

// Distance is Distance(subset, candidates) (Definition 4.14), where subset
// is all of the reference's rules or any selection of them.
func (r *Reference) Distance(subset, candidates []*lang.Clause) (float64, error) {
	var a assignment
	at := make([]int, len(subset))
	for i, c := range subset {
		idx, ok := r.index[c]
		if !ok {
			return 0, fmt.Errorf("similarity: %s is not a rule of the reference", c.Head)
		}
		at[i] = idx
	}
	rows := make([][]float64, len(candidates))
	for j, c := range candidates {
		row, err := r.row(c, &a)
		if err != nil {
			return 0, err
		}
		rows[j] = row
	}
	return a.setDistance(len(subset), len(candidates), func(i, j int) float64 { return rows[j][at[i]] })
}

// Row returns the distance of candidate rule c to every reference rule, in
// the order of Rules. The slice is the table's own: read it, do not write.
func (r *Reference) Row(c *lang.Clause) ([]float64, error) {
	var a assignment
	return r.row(c, &a)
}

// row looks c up by its text and, the first time that text is seen, scores
// it against every reference rule on workspace a. The row is computed
// outside the lock: two goroutines that miss the same text both compute it,
// the rows are equal, and the first one stored is the one everybody reads.
func (r *Reference) row(c *lang.Clause, a *assignment) ([]float64, error) {
	a.key = c.AppendText(a.key[:0])
	r.mu.Lock()
	row, ok := r.rows[string(a.key)]
	r.mu.Unlock()
	if ok {
		return row, nil
	}
	key := string(a.key)
	cand := prepareRule(c)
	row = make([]float64, len(r.rules))
	for i, ref := range r.rules {
		d, err := ruleDistance(ref, cand, a)
		if err != nil {
			return nil, err
		}
		row[i] = d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if first, ok := r.rows[key]; ok {
		return first, nil
	}
	r.rows[key] = row
	return row, nil
}
