// Command tracecheck validates observability artefacts. Its default mode
// checks a Chrome trace_event JSON file as written by the telemetry tracer
// (-trace on cmd/rtec and cmd/experiments): the file must parse, contain at
// least one complete ("ph":"X") event with a name and non-negative
// timestamps, and — when -require is given — contain at least one span whose
// name matches each required substring.
//
// With -journal the argument is a recognition audit journal (JSONL, as
// written by rtecd -journal): every line must be a well-formed record,
// the sequence numbers must be gapless and start at 1, wall_us stamps
// must be non-decreasing, and nothing may follow a journal_capped marker.
// An engine journal that ends in run_end, uncapped, must also reconcile
// with it: as many admitted-late, duplicate and too-late admission records
// as run_end counts late, duplicate and dropped arrivals, as many revised
// window records as revisions and checkpoint records as checkpoints, and
// first deliveries indexed 0, 1, ... without a gap.
// -require then names record types (exact match) that must each appear.
//
// Usage:
//
//	tracecheck [-require name[,name...]] trace.json
//	tracecheck -journal [-require type[,type...]] run.jsonl
//
// Exit status 0 when the artefact is well-formed, 1 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rtecgen/internal/telemetry/journal"
)

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name  string  `json:"name"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
}

func main() {
	require := flag.String("require", "", "comma-separated span-name substrings (trace mode) or record types (-journal mode) that must each appear")
	journalMode := flag.Bool("journal", false, "validate a recognition audit journal (JSONL) instead of a Chrome trace")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-journal] [-require name,...] file")
		os.Exit(1)
	}
	checkFn := check
	if *journalMode {
		checkFn = checkJournal
	}
	if err := checkFn(flag.Arg(0), *require); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

// checkJournal validates an audit journal: well-formed JSONL records with a
// gapless sequence, sane clocks, an engine journal's records reconciled with
// its run_end, and (with -require) the demanded record types present. The
// structural rules live in journal.Read; this adds the rest and the
// human-readable summary.
func checkJournal(path, require string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := journal.Read(f)
	if err == nil {
		err = reconcile(recs)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	types := map[string]int{}
	for _, rec := range recs {
		types[rec.Type]++
	}
	for _, want := range splitRequire(require) {
		if types[want] == 0 {
			return fmt.Errorf("%s: no %q records among %d", path, want, len(recs))
		}
	}
	capped := ""
	if types["journal_capped"] > 0 {
		capped = ", capped"
	}
	fmt.Printf("%s: ok (%d records, %d types%s)\n", path, len(recs), len(types), capped)
	return nil
}

// reconcile holds an engine journal that ends in run_end, and is not
// capped, to the totals run_end reports. A journal that lost records still
// validates structurally — its sequence numbers are its own — but not
// against the counts of the run that wrote it.
func reconcile(recs []journal.Record) error {
	if len(recs) == 0 || recs[len(recs)-1].Type != "run_end" {
		return nil
	}
	type data struct {
		Verdict                                           string
		Index, Revision                                   int
		Late, Duplicates, Dropped, Revisions, Checkpoints int64
	}
	var end data
	have := map[string]int64{} // by admission verdict, "revised window" and "checkpoint"
	firsts := 0                // the next first delivery's index
	for _, rec := range recs {
		var d data
		if err := json.Unmarshal(rec.Data, &d); rec.Data != nil && err != nil {
			return fmt.Errorf("seq %d: %w", rec.Seq, err)
		}
		switch {
		case rec.Type == "run_end":
			end = d
		case rec.Type == "admission":
			have[d.Verdict]++
		case rec.Type == "checkpoint":
			have["checkpoint"]++
		case rec.Type == "window" && d.Revision > 0:
			have["revised window"]++
		case rec.Type == "window" && d.Index != firsts:
			return fmt.Errorf("seq %d: first delivery of window %d, want window %d", rec.Seq, d.Index, firsts)
		case rec.Type == "window":
			firsts++
		}
	}
	for _, c := range []struct {
		what string
		want int64
	}{
		{"admitted-late", end.Late}, {"duplicate", end.Duplicates}, {"too-late", end.Dropped},
		{"revised window", end.Revisions}, {"checkpoint", end.Checkpoints},
	} {
		if have[c.what] != c.want {
			return fmt.Errorf("%d %s records, but the run reports %d", have[c.what], c.what, c.want)
		}
	}
	return nil
}

func check(path, require string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return fmt.Errorf("%s: not valid trace JSON: %w", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: no trace events", path)
	}
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("%s: event %d has no name", path, i)
		}
		if ev.Phase != "X" {
			return fmt.Errorf("%s: event %d (%s): phase %q, want complete event \"X\"", path, i, ev.Name, ev.Phase)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			return fmt.Errorf("%s: event %d (%s): negative timestamp or duration", path, i, ev.Name)
		}
	}
	for _, want := range splitRequire(require) {
		found := false
		for _, ev := range tf.TraceEvents {
			if strings.Contains(ev.Name, want) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: no span matching %q among %d events", path, want, len(tf.TraceEvents))
		}
	}
	fmt.Printf("%s: ok (%d events)\n", path, len(tf.TraceEvents))
	return nil
}

func splitRequire(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
