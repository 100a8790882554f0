package rtec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"rtecgen/internal/intervals"
	"rtecgen/internal/stream"
)

// TestMetamorphicRuns holds the run loop to relations between runs instead
// of to a reference engine. Every geometry of TestDeltaBatchGeometries runs
// through Run over the sorted events and through RunStream over a bounded
// shuffle of them (duplicates included), and for both:
//   - shifting every timestamp and the bounds by k·slide shifts every
//     recognised interval by k·slide;
//   - renaming one entity throughout the stream renames it in the output and
//     changes nothing else;
//   - adding events of a predicate no rule reads changes nothing at all.
//
// The batch and the streamed recognition of the unchanged stream are also
// required to be one another's.
func TestMetamorphicRuns(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	events := geometryEvents()
	noise := append(stream.Stream(nil), events...)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		noise = append(noise, ev(int64(r.Intn(1000)), fmt.Sprintf("ping(v%d)", 1+r.Intn(3))))
	}
	noise.Sort()
	rename := func(s string) string { return strings.ReplaceAll(s, "v1", "v9") }
	renamed := make(stream.Stream, len(events))
	for i, x := range events {
		renamed[i] = ev(x.Time, rename(x.Atom.String()))
	}
	renamed.Sort()

	runners := map[string]func(stream.Stream, RunOptions) (*Recognition, error){
		"Run": e.Run,
		"RunStream": func(s stream.Stream, opts RunOptions) (*Recognition, error) {
			arrivals, _, _ := stream.Perturb(s, rand.New(rand.NewSource(13)), 60, 7)
			res, err := e.RunStream(arrivals, StreamOptions{RunOptions: opts, MaxDelay: 60}, nil)
			if err != nil {
				return nil, err
			}
			return res.Recognition, nil
		},
	}
	for _, tc := range deltaGeometries {
		if tc.wantErr {
			continue
		}
		opts := RunOptions{Window: tc.window, Slide: tc.slide, Start: 0, End: 1000}
		slide := tc.slide
		if slide == 0 {
			slide = tc.window
		}
		const k = 3
		shifted := make(stream.Stream, len(events))
		for i, x := range events {
			shifted[i] = stream.Event{Time: x.Time + k*slide, Atom: x.Atom}
		}
		shiftedOpts := opts
		shiftedOpts.Start, shiftedOpts.End = opts.Start+k*slide, opts.End+k*slide

		base := map[string]*Recognition{}
		for name, run := range runners {
			at := func(s stream.Stream, o RunOptions) *Recognition {
				t.Helper()
				rec, err := run(s, o)
				if err != nil {
					t.Fatalf("%s, %s: %v", tc.name, name, err)
				}
				return rec
			}
			rec := at(events, opts)
			base[name] = rec
			lines := recognitionLines(rec, nil, 0)
			if len(lines) == 0 || !strings.Contains(strings.Join(lines, "\n"), "v1") {
				t.Fatalf("%s, %s: nothing recognised for v1: the relations are vacuous", tc.name, name)
			}
			if got, want := recognitionLines(at(shifted, shiftedOpts), nil, 0), recognitionLines(rec, nil, k*slide); !slices.Equal(got, want) {
				t.Errorf("%s, %s: shifting by %d:\n%s\nwant\n%s", tc.name, name, k*slide, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if got, want := recognitionLines(at(renamed, opts), nil, 0), recognitionLines(rec, rename, 0); !slices.Equal(got, want) {
				t.Errorf("%s, %s: renaming v1:\n%s\nwant\n%s", tc.name, name, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if got, want := recognitionFingerprint(t, at(noise, opts)), recognitionFingerprint(t, rec); got != want {
				t.Errorf("%s, %s: unread events changed the output:\n%s\nwant\n%s", tc.name, name, got, want)
			}
		}
		if a, b := recognitionFingerprint(t, base["Run"]), recognitionFingerprint(t, base["RunStream"]); a != b {
			t.Errorf("%s: stream differs from batch:\n%s\nvs\n%s", tc.name, b, a)
		}
	}
}

// recognitionLines renders rec as sorted "key [start,end)" lines, each key
// passed through rename (when set) and each interval shifted by shift.
func recognitionLines(rec *Recognition, rename func(string) string, shift int64) []string {
	var lines []string
	for _, key := range rec.Keys() {
		name := key
		if rename != nil {
			name = rename(key)
		}
		for _, iv := range rec.IntervalsOfKey(key) {
			end := iv.End
			if end != intervals.Inf {
				end += shift
			}
			lines = append(lines, fmt.Sprintf("%s [%d,%d)", name, iv.Start+shift, end))
		}
	}
	sort.Strings(lines)
	return lines
}
