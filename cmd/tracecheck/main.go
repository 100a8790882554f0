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
// gapless sequence, sane clocks, and (with -require) the demanded record
// types present. The structural rules live in journal.Validate; this adds
// the -require layer and the human-readable summary.
func checkJournal(path, require string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	stats, err := journal.Validate(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, want := range splitRequire(require) {
		if stats.Types[want] == 0 {
			return fmt.Errorf("%s: no %q records among %d", path, want, stats.Records)
		}
	}
	capped := ""
	if stats.Capped {
		capped = ", capped"
	}
	fmt.Printf("%s: ok (%d records, %d types%s)\n", path, stats.Records, len(stats.Types), capped)
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
