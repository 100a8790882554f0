package llm

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"rtecgen/internal/analysis"
	"rtecgen/internal/lang"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
)

func runPipeline(t *testing.T, model string, scheme prompt.Scheme) *prompt.GeneratedED {
	t.Helper()
	gen, err := prompt.RunPipeline(MustNew(model), scheme, maritime.PromptDomain(), maritime.CurriculumRequests())
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestNewRejectsUnknownModel(t *testing.T) {
	if _, err := New("GPT-17"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if m := MustNew("o1"); m.Name() != "o1" {
		t.Fatal("Name() wrong")
	}
	if len(AllModels()) != 6 {
		t.Fatal("AllModels() != 6")
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	a := runPipeline(t, "Llama-3", prompt.FewShot)
	b := runPipeline(t, "Llama-3", prompt.FewShot)
	if a.ED().String() != b.ED().String() {
		t.Fatal("generation is not deterministic")
	}
}

func TestSchemesProduceDifferentOutput(t *testing.T) {
	fs := runPipeline(t, "GPT-4o", prompt.FewShot)
	cot := runPipeline(t, "GPT-4o", prompt.ChainOfThought)
	if fs.ED().String() == cot.ED().String() {
		t.Fatal("few-shot and chain-of-thought outputs identical")
	}
}

func TestModelsProduceDifferentOutput(t *testing.T) {
	a := runPipeline(t, "o1", prompt.FewShot)
	b := runPipeline(t, "Gemma-2", prompt.FewShot)
	if a.ED().String() == b.ED().String() {
		t.Fatal("different models produced identical output")
	}
}

func TestO1SpecialsPresent(t *testing.T) {
	gen := runPipeline(t, "o1", prompt.FewShot)
	// trawlingArea naming error (category 1).
	res, _ := gen.ResultFor("tr")
	var text strings.Builder
	for _, c := range res.Clauses {
		text.WriteString(c.String())
	}
	if !strings.Contains(text.String(), "trawlingArea") {
		t.Error("o1 trawling must use the 'trawlingArea' constant")
	}
	// Equivalent loitering restructure: two relative complements.
	lres, _ := gen.ResultFor("l")
	complements := 0
	for _, c := range lres.Clauses {
		for _, lit := range c.Body {
			if lit.Atom.Functor == "relative_complement_all" {
				complements++
			}
		}
	}
	if complements != 2 {
		t.Errorf("o1 loitering must use two relative complements, found %d", complements)
	}
}

func TestGPT4oLoiteringConjunctionError(t *testing.T) {
	gen := runPipeline(t, "GPT-4o", prompt.ChainOfThought)
	res, _ := gen.ResultFor("l")
	hasIntersect, hasUnion := false, false
	for _, c := range res.Clauses {
		for _, lit := range c.Body {
			switch lit.Atom.Functor {
			case "intersect_all":
				hasIntersect = true
			case "union_all":
				hasUnion = true
			}
		}
	}
	if !hasIntersect || hasUnion {
		t.Fatalf("GPT-4o loitering must confuse union_all with intersect_all (intersect=%v union=%v)",
			hasIntersect, hasUnion)
	}
}

func TestGPT4oMovingSpeedKindFlip(t *testing.T) {
	gen := runPipeline(t, "GPT-4o", prompt.ChainOfThought)
	res, _ := gen.ResultFor("movingSpeed")
	for _, c := range res.Clauses {
		if c.Kind() != lang.KindHoldsFor {
			t.Fatalf("GPT-4o movingSpeed must be statically determined, found %v", c.Kind())
		}
	}
}

func TestGemma2TrawlingKindFlip(t *testing.T) {
	gen := runPipeline(t, "Gemma-2", prompt.ChainOfThought)
	res, _ := gen.ResultFor("tr")
	for _, c := range res.Clauses {
		if c.Kind() == lang.KindHoldsFor {
			t.Fatal("Gemma-2 trawling must be a simple fluent")
		}
	}
}

func TestGemma2FewShotSyntaxError(t *testing.T) {
	gen := runPipeline(t, "Gemma-2", prompt.FewShot)
	if len(gen.ParseErrors()) == 0 {
		t.Fatal("Gemma-2 few-shot must produce at least one syntax error")
	}
}

func TestHonestyGateMasksUntaughtVocabulary(t *testing.T) {
	// Teach the fluent kinds (prompt F*) but not the input events (prompt
	// E): the model knows the rule shapes yet must hallucinate event names
	// it was never taught.
	m := MustNew("o1")
	history := []prompt.Message{{Role: "user", Content: prompt.BuildF(prompt.FewShot)}}
	reply, err := m.Chat(history, prompt.ActivityMarker+"withinArea: a vessel is within an area.")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "entersAreaEvt") {
		t.Fatalf("untaught event must be hallucinated; reply:\n%s", reply)
	}
	// With a proper session the real names appear.
	gen := runPipeline(t, "o1", prompt.FewShot)
	res, _ := gen.ResultFor("withinArea")
	found := false
	for _, c := range res.Clauses {
		if strings.Contains(c.String(), "entersArea(") {
			found = true
		}
	}
	if !found {
		t.Fatal("taught event name missing from output")
	}
}

func TestUnknownActivityPolitelyRefused(t *testing.T) {
	m := MustNew("o1")
	reply, err := m.Chat(nil, prompt.ActivityMarker+"teleportation: vessels teleport.")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(reply, ":-") {
		t.Fatalf("unknown activity produced rules: %s", reply)
	}
}

func TestTeachingPromptsAcknowledged(t *testing.T) {
	m := MustNew("Mistral")
	reply, err := m.Chat(nil, prompt.BuildR())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(reply, ":-") {
		t.Fatal("teaching prompt must not produce rules")
	}
}

func TestAllModelOutputsMostlyParse(t *testing.T) {
	for _, name := range ModelNames() {
		for _, scheme := range []prompt.Scheme{prompt.FewShot, prompt.ChainOfThought} {
			gen := runPipeline(t, name, scheme)
			if len(gen.ED().Rules()) < 20 {
				t.Errorf("%s %s produced only %d rules", name, scheme, len(gen.ED().Rules()))
			}
			// Syntax errors are allowed only where the profile injects them.
			if name != "Gemma-2" && len(gen.ParseErrors()) > 0 {
				t.Errorf("%s %s unexpected parse errors: %v", name, scheme, gen.ParseErrors())
			}
		}
	}
}

func TestFnvSeedStability(t *testing.T) {
	a := fnvSeed("o1", "few-shot", "tr")
	b := fnvSeed("o1", "few-shot", "tr")
	c := fnvSeed("o1", "few-shot", "tu")
	if a != b {
		t.Fatal("seed not stable")
	}
	if a == c {
		t.Fatal("seed collision across activities")
	}
	if a < 0 {
		t.Fatal("seed must be non-negative")
	}
}

// critiqueSession teaches a session, generates the named activity, and
// applies n critique turns, returning every response in order.
func critiqueSession(t *testing.T, model string, scheme prompt.Scheme, key string, n int) []string {
	t.Helper()
	dom := maritime.PromptDomain()
	s := prompt.NewSession(MustNew(model), scheme, dom)
	if err := s.Teach(); err != nil {
		t.Fatal(err)
	}
	var req prompt.ActivityRequest
	for _, r := range maritime.CurriculumRequests() {
		if r.Key == key {
			req = r
		}
	}
	if req.Key == "" {
		t.Fatalf("no curriculum activity %q", key)
	}
	first, err := s.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	out := []string{first}
	diags := []analysis.Diagnostic{{Code: "R002", Severity: analysis.Error, Message: "undefined reference"}}
	for i := 0; i < n; i++ {
		rev, err := s.Critique(req, diags)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rev)
	}
	return out
}

func TestCritiqueEscalatesRevisions(t *testing.T) {
	// o1's trawling definition carries the systematic trawlingArea naming
	// error. The first critique fixes careless mistakes but keeps the
	// misconception; the second critique repairs it too.
	got := critiqueSession(t, "o1", prompt.FewShot, "tr", 3)
	if !strings.Contains(got[0], "trawlingArea") || !strings.Contains(got[1], "trawlingArea") {
		t.Fatalf("systematic error should survive revision 1:\n%s", got[1])
	}
	if strings.Contains(got[2], "trawlingArea") {
		t.Fatalf("systematic error should be repaired at revision 2:\n%s", got[2])
	}
	// Revision 2 is the model's best answer: further critiques are stable.
	if got[3] != got[2] {
		t.Fatalf("critique did not converge:\nrev2:\n%s\nrev3:\n%s", got[2], got[3])
	}
	// The revised answer must be fully parseable.
	clauses, errs := prompt.ParseResponse(got[2])
	if len(errs) > 0 || len(clauses) == 0 {
		t.Fatalf("revised answer unparseable (%d clauses, %v)", len(clauses), errs)
	}
}

func TestCritiqueIsDeterministic(t *testing.T) {
	a := critiqueSession(t, "Gemma-2", prompt.ChainOfThought, "tr", 2)
	b := critiqueSession(t, "Gemma-2", prompt.ChainOfThought, "tr", 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("critique sequence diverged at step %d", i)
		}
	}
}

func TestCritiqueRepairsSyntaxSpecial(t *testing.T) {
	// Gemma-2 few-shot corrupts the syntax of its anchoredOrMoored answer;
	// the corruption is a named special, so it survives one critique and is
	// repaired at revision 2.
	got := critiqueSession(t, "Gemma-2", prompt.FewShot, "aM", 2)
	if _, errs := prompt.ParseResponse(got[0]); len(errs) == 0 {
		t.Fatal("profile no longer corrupts anchoredOrMoored syntax")
	}
	if clauses, errs := prompt.ParseResponse(got[2]); len(errs) > 0 || len(clauses) == 0 {
		t.Fatalf("revision 2 still corrupt: %v", errs)
	}
}

// scanTaught is the vocabulary of a conversation read the direct way, every
// E/T line of every user turn parsed on the spot: the reference the memo must
// agree with.
func scanTaught(history []prompt.Message) (events, thresholds map[string]bool) {
	events, thresholds = map[string]bool{}, map[string]bool{}
	for _, msg := range history {
		if msg.Role != "user" {
			continue
		}
		for _, line := range strings.Split(msg.Content, "\n") {
			line = strings.TrimSpace(line)
			for _, prefix := range []string{"Input Event ", "Background Predicate "} {
				if rest, ok := cutPrefixAfter(line, prefix, ": "); ok {
					if t, err := parser.ParseTerm(rest); err == nil && t.IsCallable() {
						events[t.Indicator()] = true
					}
				}
			}
			if rest, ok := cutPrefixAfter(line, "Threshold ", ": "); ok {
				if t, err := parser.ParseTerm(rest); err == nil && t.Functor == "thresholds" &&
					len(t.Args) == 2 && t.Args[0].Kind == lang.Atom {
					thresholds[t.Args[0].Functor] = true
				}
			}
		}
	}
	return events, thresholds
}

// flatten merges what each teaching message of a conversation taught.
func (t taught) flatten() (events, thresholds map[string]bool) {
	events, thresholds = map[string]bool{}, map[string]bool{}
	for _, v := range t {
		for e := range v.events {
			events[e] = true
		}
		for th := range v.thresholds {
			thresholds[th] = true
		}
	}
	return events, thresholds
}

func memoSize() int {
	vocabularies.RLock()
	defer vocabularies.RUnlock()
	return len(vocabularies.byText)
}

// TestVocabularyMemoMatchesScan: for every profile under both schemes —
// fourteen pipelines at once, on an emptied memo, so its first fills race
// each other — the vocabulary read through the memo at every turn of the
// conversation is what a direct scan of that turn's history reads.
func TestVocabularyMemoMatchesScan(t *testing.T) {
	vocabularies.Lock()
	vocabularies.byText = nil
	vocabularies.Unlock()

	var names []string
	for name := range Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	schemes := []prompt.Scheme{prompt.FewShot, prompt.ChainOfThought}
	gens := make([]*prompt.GeneratedED, len(names)*len(schemes))
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gens[i], errs[i] = prompt.RunPipeline(MustNew(names[i/len(schemes)]), schemes[i%len(schemes)],
				maritime.PromptDomain(), maritime.CurriculumRequests())
		}(i)
	}
	wg.Wait()
	for i, gen := range gens {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(gen.Transcript) == 0 {
			t.Fatalf("%s: no transcript", gen.Label())
		}
		for n := 0; n <= len(gen.Transcript); n++ {
			wantE, wantT := scanTaught(gen.Transcript[:n])
			gotE, gotT := taughtVocabulary(gen.Transcript[:n]).flatten()
			if !reflect.DeepEqual(gotE, wantE) || !reflect.DeepEqual(gotT, wantT) {
				t.Fatalf("%s after %d messages: memo taught %v / %v, a scan %v / %v",
					gen.Label(), n, gotE, gotT, wantE, wantT)
			}
		}
	}
	// Prompts E and T are the same text in every session: two entries.
	if n := memoSize(); n != 2 {
		t.Errorf("the memo holds %d messages after %d sessions, want 2 (prompts E and T)", n, len(gens))
	}
}

// TestVocabularyMemoBounded: critique turns teach nothing, so a hundred
// distinct ones leave the memo as large as the teaching prompts made it.
func TestVocabularyMemoBounded(t *testing.T) {
	m := MustNew("Mistral")
	gen, err := prompt.RunPipeline(m, prompt.ChainOfThought, maritime.PromptDomain(), maritime.CurriculumRequests())
	if err != nil {
		t.Fatal(err)
	}
	before := memoSize()
	if before == 0 {
		t.Fatal("a taught session left the memo empty")
	}
	history := append([]prompt.Message(nil), gen.Transcript...)
	req := gen.Results[0].Request
	for i := 0; i < 100; i++ {
		diags := []analysis.Diagnostic{{Code: "R002", Severity: analysis.Error, Message: fmt.Sprintf("undefined reference #%d", i)}}
		user := prompt.BuildC(req, diags)
		reply, err := m.Chat(history, user)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, prompt.Message{Role: "user", Content: user}, prompt.Message{Role: "assistant", Content: reply})
	}
	if after := memoSize(); after != before {
		t.Fatalf("100 critique turns grew the memo from %d to %d messages", before, after)
	}
}
