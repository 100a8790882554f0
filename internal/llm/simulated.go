package llm

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"rtecgen/internal/lang"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
)

// ActivityKnowledge is a model's internal notion of one activity's intended
// formalisation: what a competent model "understands" the description to
// mean, before its error profile corrupts it.
type ActivityKnowledge struct {
	Key     string   // short identifier, used to look up special errors
	Name    string   // activity name matched against the prompt G header
	Primary string   // functor of the top-level fluent
	Fluents []string // functors of all fluents the formalisation defines
	Clauses []*lang.Clause
}

// Knowledge packages a domain's activity understanding and vocabulary for a
// simulated model. MaritimeKnowledge is the default; other domains (e.g.
// internal/fleet) provide their own.
type Knowledge struct {
	Activities []ActivityKnowledge
	Domain     *prompt.Domain

	// What the simulated models read of Domain on every turn, parsed once
	// from its patterns on first use (see names): Domain must not change
	// once a model has answered from this knowledge base.
	parsed     sync.Once
	events     map[string]bool // indicators of the documented input events
	predicates map[string]bool // functors of the input events and background predicates
	constants  map[string]bool // values, threshold names and the domain's type constants
}

// names parses the domain's event and background patterns and collects its
// constant names, once per knowledge base.
func (k *Knowledge) names() (events, predicates, constants map[string]bool) {
	k.parsed.Do(func() {
		k.events, k.predicates, k.constants = map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, e := range k.Domain.Events {
			if t, err := parser.ParseTerm(e.Pattern); err == nil {
				k.events[t.Indicator()] = true
				k.predicates[t.Functor] = true
			}
		}
		for _, b := range k.Domain.Background {
			if t, err := parser.ParseTerm(b.Pattern); err == nil {
				k.predicates[t.Functor] = true
			}
		}
		for _, v := range k.Domain.Values {
			k.constants[v] = true
		}
		for _, t := range k.Domain.Thresholds {
			k.constants[t.Name] = true
		}
		for _, extra := range []string{"fishing", "anchorage", "nearCoast", "fishingVessel", "pilotVessel", "sarVessel"} {
			k.constants[extra] = true
		}
	})
	return k.events, k.predicates, k.constants
}

// byName finds an activity by the name in the prompt G header, falling back
// to substring matching as a model would.
func (k *Knowledge) byName(name string) (ActivityKnowledge, bool) {
	lname := strings.ToLower(strings.TrimSpace(name))
	for _, a := range k.Activities {
		if strings.ToLower(a.Name) == lname || strings.ToLower(a.Key) == lname {
			return a, true
		}
	}
	for _, a := range k.Activities {
		if strings.Contains(lname, strings.ToLower(a.Name)) {
			return a, true
		}
	}
	return ActivityKnowledge{}, false
}

// MaritimeKnowledge builds the default knowledge base from the maritime
// curriculum and gold standard.
func MaritimeKnowledge() *Knowledge {
	k := &Knowledge{Domain: maritime.PromptDomain()}
	gold := maritime.GoldED()
	for _, act := range maritime.Curriculum {
		fluents := make([]string, 0, len(act.Fluents))
		for _, f := range act.Fluents {
			fluents = append(fluents, strings.SplitN(f, "/", 2)[0])
		}
		k.Activities = append(k.Activities, ActivityKnowledge{
			Key:     act.Key,
			Name:    act.Name,
			Primary: act.PrimaryName(),
			Fluents: fluents,
			Clauses: maritime.RulesForActivity(gold, act),
		})
	}
	return k
}

// Simulated is a deterministic stand-in for a pre-trained LLM. It keeps no
// mutable state: everything it "knows" at each turn is re-derived from the
// conversation history, like a real chat model. (What each teaching prompt
// says is remembered by its text, a cache of a pure function; see
// taughtVocabulary.)
type Simulated struct {
	name    string
	profile Profile
	know    *Knowledge
}

// New returns the simulated model with the given name on the maritime
// domain, or an error for an unknown name. Known names: GPT-4, GPT-4o, o1,
// Llama-3, Mistral, Gemma-2.
func New(name string) (*Simulated, error) {
	return NewWithKnowledge(name, MaritimeKnowledge())
}

// NewWithKnowledge returns the simulated model with the given name over a
// custom domain knowledge base (the paper's further work: applying the
// method to other domains by swapping the prompts' domain content).
func NewWithKnowledge(name string, know *Knowledge) (*Simulated, error) {
	p, ok := Profiles[name]
	if !ok {
		return nil, fmt.Errorf("llm: unknown model %q", name)
	}
	return &Simulated{name: name, profile: p, know: know}, nil
}

// MustNew is New for known-good names.
func MustNew(name string) *Simulated {
	m, err := New(name)
	if err != nil {
		panic(err)
	}
	return m
}

// AllModels returns the six simulated models in presentation order. They
// share one maritime knowledge base, and so one copy of the gold rules: a
// model reads its Knowledge and never writes to it (every answer edits a
// clone of the activity's clauses).
func AllModels() []*Simulated {
	know := MaritimeKnowledge()
	out := make([]*Simulated, 0, len(ModelNames()))
	for _, n := range ModelNames() {
		m, err := NewWithKnowledge(n, know)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// Name implements prompt.Model.
func (m *Simulated) Name() string { return m.name }

// Chat implements prompt.Model. Teaching prompts are acknowledged; a prompt
// G request produces an activity formalisation derived from the model's
// internal notion of the intended definition, perturbed by its error
// profile. The model only uses vocabulary that the conversation actually
// taught it, and it infers the prompting scheme from the shape of prompt F.
func (m *Simulated) Chat(history []prompt.Message, user string) (string, error) {
	if name, ok := markedActivity(user, prompt.CritiqueMarker); ok {
		// A critique turn: the model re-reads its notes more carefully each
		// time it is pressed on the same activity.
		return m.generate(history, name, 1+critiqueCount(history, name))
	}
	if name, ok := markedActivity(user, prompt.ActivityMarker); ok {
		return m.generate(history, name, 0)
	}
	if strings.Contains(user, prompt.ActivityMarker) || strings.Contains(user, prompt.CritiqueMarker) {
		return "I could not identify the requested activity.", nil
	}
	return fmt.Sprintf("Understood. I will use this information when formalising composite activities for %s.",
		m.know.Domain.Name), nil
}

// markedActivity extracts the activity name from a "<marker><name>: ..."
// payload.
func markedActivity(user, marker string) (string, bool) {
	idx := strings.Index(user, marker)
	if idx < 0 {
		return "", false
	}
	rest := user[idx+len(marker):]
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return "", false
	}
	return strings.TrimSpace(rest[:colon]), true
}

// critiqueCount counts the critique turns already issued for the named
// activity, so that repeated critiques escalate the revision level.
func critiqueCount(history []prompt.Message, name string) int {
	n := 0
	for _, msg := range history {
		if msg.Role == "user" && strings.Contains(msg.Content, prompt.CritiqueMarker+name+":") {
			n++
		}
	}
	return n
}

// vocabulary is what one message teaches: the indicators of the input
// events and background predicates prompt E documents, and the threshold
// names prompt T declares. It is never modified once built.
type vocabulary struct {
	events, thresholds map[string]bool
}

// taught is the vocabulary of a conversation: one entry per user message
// that teaches any, in order.
type taught []*vocabulary

func (t taught) event(ind string) bool {
	for _, v := range t {
		if v.events[ind] {
			return true
		}
	}
	return false
}

func (t taught) threshold(name string) bool {
	for _, v := range t {
		if v.thresholds[name] {
			return true
		}
	}
	return false
}

// vocabularies remembers each teaching message's vocabulary by its text: a
// message is parsed the first time any session sends it, and every later
// turn — of any session, on any goroutine — reads the result. A message that
// teaches nothing is not remembered, so the memo holds one entry per distinct
// prompt E or T and does not grow with the conversation.
var vocabularies struct {
	sync.RWMutex
	byText map[string]*vocabulary
}

// taughtVocabulary returns the vocabulary the user turns of the conversation
// taught.
func taughtVocabulary(history []prompt.Message) taught {
	var out taught
	for _, msg := range history {
		if msg.Role != "user" {
			continue
		}
		if v := messageVocabulary(msg.Content); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// messageVocabulary returns what one message teaches, or nil when it teaches
// nothing.
func messageVocabulary(content string) *vocabulary {
	vocabularies.RLock()
	v, ok := vocabularies.byText[content]
	vocabularies.RUnlock()
	if ok {
		return v
	}
	if v = scanVocabulary(content); v == nil {
		return nil
	}
	vocabularies.Lock()
	defer vocabularies.Unlock()
	if vocabularies.byText == nil {
		vocabularies.byText = map[string]*vocabulary{}
	}
	if prev, ok := vocabularies.byText[content]; ok {
		return prev
	}
	vocabularies.byText[content] = v
	return v
}

// scanVocabulary parses the "Input Event N: ...", "Background Predicate N:
// ..." and "Threshold N: thresholds(name, Value)" lines of a message. A
// message with none of them yields nil without parsing anything.
func scanVocabulary(content string) *vocabulary {
	var events, thresholds map[string]bool
	for rest := content; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if pattern, ok := cutPrefixAfter(line, "Input Event ", ": "); ok {
			if t, err := parser.ParseTerm(pattern); err == nil && t.IsCallable() {
				events = addName(events, t.Indicator())
			}
		}
		if pattern, ok := cutPrefixAfter(line, "Background Predicate ", ": "); ok {
			if t, err := parser.ParseTerm(pattern); err == nil && t.IsCallable() {
				events = addName(events, t.Indicator())
			}
		}
		if decl, ok := cutPrefixAfter(line, "Threshold ", ": "); ok {
			if t, err := parser.ParseTerm(decl); err == nil && t.Functor == "thresholds" && len(t.Args) == 2 {
				if t.Args[0].Kind == lang.Atom {
					thresholds = addName(thresholds, t.Args[0].Functor)
				}
			}
		}
	}
	if events == nil && thresholds == nil {
		return nil
	}
	return &vocabulary{events: events, thresholds: thresholds}
}

func addName(set map[string]bool, name string) map[string]bool {
	if set == nil {
		set = map[string]bool{}
	}
	set[name] = true
	return set
}

// cutPrefixAfter matches lines like "<prefix>N<sep><rest>" and returns rest.
func cutPrefixAfter(line, prefix, sep string) (string, bool) {
	if !strings.HasPrefix(line, prefix) {
		return "", false
	}
	rest := line[len(prefix):]
	i := strings.Index(rest, sep)
	if i < 0 {
		return "", false
	}
	return strings.TrimSpace(rest[i+len(sep):]), true
}

// schemeOf infers the prompting scheme from the conversation: prompt F
// (chain-of-thought) contains the step-by-step explanations, prompt F*
// (few-shot) only the examples; if neither was sent the session is
// zero-shot and the model has never seen a fluent definition.
func schemeOf(history []prompt.Message) prompt.Scheme {
	sawF := false
	for _, msg := range history {
		if msg.Role != "user" {
			continue
		}
		if strings.Contains(msg.Content, "The activity 'withinArea' is expressed as a simple") {
			return prompt.ChainOfThought
		}
		if strings.Contains(msg.Content, "There are two ways in which a composite activity may be defined") {
			sawF = true
		}
	}
	if sawF {
		return prompt.FewShot
	}
	return prompt.ZeroShot
}

// rngs pools generate's random sources: a source reseeded with a seed
// yields the sequence a new source of that seed would, and a new one is
// about 5 KB of state.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// generate produces the formalisation of the named activity. revision 0 is
// the first attempt; each critique turn raises it by one. At revision 1 the
// model fixes its careless (rate-sampled) mistakes; from revision 2 on it
// also repairs the systematic misconceptions of its error profile. The
// honesty gate is never lifted: vocabulary the conversation did not teach
// stays unavailable no matter how often the model is critiqued.
func (m *Simulated) generate(history []prompt.Message, name string, revision int) (string, error) {
	act, ok := m.know.byName(name)
	if !ok {
		return fmt.Sprintf("I am not familiar with an activity named '%s'.", name), nil
	}
	scheme := schemeOf(history)
	if scheme == prompt.ZeroShot {
		// Without prompt F the model has never seen the shape of a fluent
		// definition: it improvises a plausible but non-RTEC notation — the
		// "poor results" that made the paper drop zero-shot from the
		// pipeline (Section 3).
		return m.generateZeroShot(act), nil
	}
	clauses := cloneClauses(act.Clauses)

	// Honesty gate: the model cannot use input events or thresholds it was
	// never taught. Untaught names are hallucinated variants.
	clauses = m.maskUntaught(clauses, taughtVocabulary(history))

	// Named special errors for this (model, scheme, activity).
	syntaxErr := false
	if byScheme, ok := m.profile.Special[act.Key]; revision < 2 && ok {
		for _, special := range byScheme[scheme] {
			if special == "syntax" {
				syntaxErr = true
				continue
			}
			clauses = m.applySpecial(special, act, clauses)
		}
	}

	// Generic rate-based errors.
	if revision < 1 {
		rng := rngs.Get().(*rand.Rand)
		rng.Seed(fnvSeed(m.name, scheme.String(), act.Key))
		clauses = m.applyGeneric(rng, scheme, act, clauses)
		rngs.Put(rng)
	}

	text := renderResponse(scheme, act, clauses)
	if syntaxErr {
		text = corruptSyntax(text)
	}
	return text, nil
}

// maskUntaught renames input events and thresholds that were not taught.
func (m *Simulated) maskUntaught(clauses []*lang.Clause, vocab taught) []*lang.Clause {
	known, _, _ := m.know.names()
	for _, c := range clauses {
		for _, l := range c.Body {
			a := l.Atom
			if a.Functor == "happensAt" && len(a.Args) == 2 && a.Args[0].IsCallable() {
				ind := a.Args[0].Indicator()
				if known[ind] && !vocab.event(ind) {
					Rename(a.Args[0].Functor, a.Args[0].Functor+"Evt", true).Apply(nil, clauses, "")
				}
			}
			if a.Functor == "thresholds" && len(a.Args) == 2 && a.Args[0].Kind == lang.Atom {
				if !vocab.threshold(a.Args[0].Functor) {
					Rename(a.Args[0].Functor, a.Args[0].Functor+"Thr", true).Apply(nil, clauses, "")
				}
			}
		}
	}
	return clauses
}

// applySpecial executes one named special mutation.
func (m *Simulated) applySpecial(special string, act ActivityKnowledge, clauses []*lang.Clause) []*lang.Clause {
	primary := act.Primary
	switch special {
	case "const:trawlingArea":
		Rename("fishing", "trawlingArea", false).Apply(nil, clauses, "")
	case "equivalent:loitering":
		clauses = replaceFluentRules(clauses, map[string]bool{"loitering": true}, equivalentLoiteringSrc)
	case "opswap":
		SwapIntervalOp().Apply(nil, clauses, primary)
	case "redundant:underWay":
		AddRedundantIntersect().Apply(nil, clauses, primary)
	case "kindflip:movingSpeed":
		clauses = replaceFluentRules(clauses, map[string]bool{"movingSpeed": true}, sdMovingSpeedSrc)
	case "kindflip:trawling":
		clauses = replaceFluentRules(clauses,
			map[string]bool{"trawling": true, "trawlSpeed": true, "trawlingMovement": true}, simpleTrawlingSrc)
	case "invented:trawlingGPT4":
		clauses = replaceFluentRules(clauses,
			map[string]bool{"trawling": true, "trawlSpeed": true, "trawlingMovement": true}, inventedTrawlingGPT4Src)
	case "invented:trawlingMistral":
		clauses = replaceFluentRules(clauses,
			map[string]bool{"trawling": true, "trawlSpeed": true, "trawlingMovement": true}, inventedTrawlingMistralSrc)
	case "pb:lowSpeedOnly":
		clauses = replaceFluentRules(clauses, map[string]bool{"pilotBoarding": true}, pbLowSpeedOnlySrc)
	case "pb:singleVessel":
		clauses = replaceFluentRules(clauses, map[string]bool{"pilotBoarding": true}, pbSingleVesselSrc)
	}
	return clauses
}

// applyGeneric samples the generic error classes per the profile's rates.
func (m *Simulated) applyGeneric(rng *rand.Rand, scheme prompt.Scheme, act ActivityKnowledge, clauses []*lang.Clause) []*lang.Clause {
	rates := m.profile.Rates[scheme]
	own := map[string]bool{}
	for _, f := range act.Fluents {
		own[f] = true
	}

	// Predicate renames: each event/background predicate present in the
	// rules is independently misremembered with probability Rename.
	_, predicates, constants := m.know.names()
	applyRenames(rng, clauses, m.know.Domain.Aliases, predicates, own, rates.Rename)

	// Constant renames: values, area/vessel types and threshold names.
	applyRenames(rng, clauses, m.know.Domain.Aliases, constants, own, rates.ValueName)

	// The structural errors, each sampled at its class's rate.
	for _, p := range Perturbations(rates) {
		clauses, _ = p.Apply(rng, clauses, act.Primary)
	}
	return clauses
}

// applyRenames walks the candidate names present in the clauses and renames
// each to one of its plausible aliases with the given probability. The
// dialect's reserved words and the activity's own fluents are never renamed.
func applyRenames(rng *rand.Rand, clauses []*lang.Clause, aliases map[string][]string,
	restrictTo, own map[string]bool, p float64) {
	if p <= 0 {
		return
	}
	present := namesIn(clauses)
	var candidates []string
	for name := range present {
		if lang.Reserved(name) != lang.NotReserved || own[name] || !restrictTo[name] || len(aliases[name]) == 0 {
			continue
		}
		candidates = append(candidates, name)
	}
	sortStrings(candidates)
	for _, from := range candidates {
		if rng.Float64() < p {
			alts := aliases[from]
			Rename(from, alts[rng.Intn(len(alts))], false).Apply(nil, clauses, "")
		}
	}
}

// generateZeroShot renders the activity's intended logic in an improvised,
// non-RTEC notation. The output reads plausibly but defines no temporal
// rules: parsed leniently it contributes only inert clauses, so the
// similarity against any gold standard collapses.
func (m *Simulated) generateZeroShot(act ActivityKnowledge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Here is a logical specification of '%s':\n\n", act.Name)
	for i, c := range act.Clauses {
		if i >= 3 {
			break
		}
		switch c.Kind() {
		case lang.KindInitiatedAt:
			fvp, _ := c.HeadFVP()
			fmt.Fprintf(&b, "starts(%s) :-\n    %s.\n\n", fvp.Args[0], bodyOf(c))
		case lang.KindTerminatedAt:
			fvp, _ := c.HeadFVP()
			fmt.Fprintf(&b, "ends(%s) :-\n    %s.\n\n", fvp.Args[0], bodyOf(c))
		case lang.KindHoldsFor:
			fvp, _ := c.HeadFVP()
			fmt.Fprintf(&b, "activity(%s) :-\n    %s.\n\n", fvp.Args[0], bodyOf(c))
		}
	}
	b.WriteString("This captures the described behaviour.")
	return b.String()
}

func bodyOf(c *lang.Clause) string {
	parts := make([]string, 0, len(c.Body))
	for _, l := range c.Body {
		parts = append(parts, l.String())
	}
	return strings.Join(parts, ",\n    ")
}

// renderResponse wraps the rules in the prose a model would produce.
func renderResponse(scheme prompt.Scheme, act ActivityKnowledge, clauses []*lang.Clause) string {
	var b strings.Builder
	kind := "simple fluent"
	for _, c := range clauses {
		if c.Kind() == lang.KindHoldsFor {
			if _, fl := c.HeadFVP(); fl != nil && fl.Functor == act.Primary {
				kind = "statically determined fluent"
			}
		}
	}
	if scheme == prompt.ChainOfThought {
		fmt.Fprintf(&b, "Answer: The activity '%s' is expressed as a %s. ", act.Name, kind)
		b.WriteString("Following the input events, fluents and thresholds provided, the rules in the language of RTEC are:\n\n")
	} else {
		b.WriteString("Answer:\n\n")
	}
	var text []byte
	for i, c := range clauses {
		if i > 0 {
			b.WriteString("\n\n")
		}
		text = c.AppendText(text[:0])
		b.Write(text)
	}
	return b.String()
}
