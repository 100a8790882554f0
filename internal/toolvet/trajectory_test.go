package toolvet

import (
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// trajectoryRow is one row of BENCH_trajectory.json: one run of
// benchmark/run.sh. Result is the run's final stdout line as printed; the
// rest says what ran, where and under which load. Side is "parent" or
// "change" for the runs a change record's claim compares (Pair numbers
// them, alternating which side ran first), and "series" for the untraced
// runs of the merged commit that extend the per-commit series.
type trajectoryRow struct {
	Record     string  `json:"record"`
	Commit     string  `json:"commit"`
	Side       string  `json:"side"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Pair       int     `json:"pair"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
	Host       string  `json:"host"`
	Result     struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

var (
	// changeRecord is a change record's heading; its label names its rows.
	changeRecord = regexp.MustCompile(`(?m)^### .*\((PR \d+)(, pre-trajectory)?\)$`)
	// claimLine is a record's statement of one compared metric: the
	// medians of the parent's and the change's runs, the pairs the change
	// won, and optionally the parent's interquartile range.
	claimLine = regexp.MustCompile("(?m)^- `(\\w+)` seed (\\d+) `(\\w+)`: median ([0-9.]+) → ([0-9.]+) (ms|MB), (\\d+)/(\\d+) pairs(?:, parent IQR ([0-9.]+) (?:ms|MB))?")
)

// TestTrajectoryRecomputesRecords: every change record of EXPERIMENTS.md
// that is not marked pre-trajectory has rows in BENCH_trajectory.json, and
// each of its claim lines — medians, pairs won, parent IQR — is what its
// rows give, within the printed rounding. A record whose numbers no row
// backs fails here.
func TestTrajectoryRecomputesRecords(t *testing.T) {
	root := filepath.Join("..", "..")
	var rows []trajectoryRow
	if err := json.Unmarshal([]byte(readDoc(t, filepath.Join(root, "BENCH_trajectory.json"))), &rows); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	for i, r := range rows {
		if r.Record == "" || r.Commit == "" || r.Workload == "" || r.Host == "" || !r.Result.Correct {
			t.Errorf("row %d: record, commit, workload and host are required, and the run must be correct: %+v", i, r)
		}
		if r.Side != "series" && r.Pair < 1 {
			t.Errorf("row %d: a %q run needs its pair number", i, r.Side)
		}
	}
	doc := readDoc(t, filepath.Join(root, "EXPERIMENTS.md"))
	heads := changeRecord.FindAllStringSubmatchIndex(doc, -1)
	checked := 0
	for i, h := range heads {
		label := doc[h[2]:h[3]]
		if h[4] >= 0 {
			continue // pre-trajectory: per-pair values only in git history
		}
		end := len(doc)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		if next := strings.Index(doc[h[1]:end], "\n## "); next >= 0 {
			end = h[1] + next
		}
		lines := claimLine.FindAllStringSubmatch(doc[h[1]:end], -1)
		if len(lines) == 0 {
			t.Errorf("%s: no claim line; a trajectory record states its medians as claim lines", label)
		}
		for _, m := range lines {
			checked++
			seed, _ := strconv.ParseInt(m[2], 10, 64)
			scale := 1.0
			if m[6] == "ms" {
				scale = 1000
			}
			parent, change := map[int]float64{}, map[int]float64{}
			for _, r := range rows {
				if r.Record != label || r.Workload != m[1] || r.Seed != seed {
					continue
				}
				v, ok := r.Result.Metrics[m[3]]
				if !ok {
					continue
				}
				switch r.Side {
				case "parent":
					parent[r.Pair] = v.Value * scale
				case "change":
					change[r.Pair] = v.Value * scale
				}
			}
			var ps, cs []float64
			won := 0
			for pair, p := range parent {
				c, ok := change[pair]
				if !ok {
					continue
				}
				ps, cs = append(ps, p), append(cs, c)
				if c < p {
					won++
				}
			}
			if len(ps) == 0 {
				t.Errorf("%s: %s: no parent/change pair in BENCH_trajectory.json", label, m[0])
				continue
			}
			at := func(s string) float64 { v, _ := strconv.ParseFloat(s, 64); return v }
			tol := func(s string) float64 { // half a unit of the last printed digit
				if i := strings.IndexByte(s, '.'); i >= 0 {
					return 0.5*math.Pow(10, -float64(len(s)-i-1)) + 1e-9
				}
				return 0.5
			}
			if got := quantile(ps, 0.5); math.Abs(got-at(m[4])) > tol(m[4]) {
				t.Errorf("%s: %s: parent median is %.4f", label, m[0], got)
			}
			if got := quantile(cs, 0.5); math.Abs(got-at(m[5])) > tol(m[5]) {
				t.Errorf("%s: %s: change median is %.4f", label, m[0], got)
			}
			if k, n := strconv.Itoa(won), strconv.Itoa(len(ps)); k != m[7] || n != m[8] {
				t.Errorf("%s: %s: the change won %s of %s pairs", label, m[0], k, n)
			}
			if m[9] != "" {
				if got := quantile(ps, 0.75) - quantile(ps, 0.25); math.Abs(got-at(m[9])) > tol(m[9]) {
					t.Errorf("%s: %s: parent IQR is %.4f", label, m[0], got)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no trajectory record has a claim line: nothing was recomputed")
	}
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (numpy's default).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
