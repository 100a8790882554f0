// Package prompt implements the prompting method of the paper (Section 3):
// the construction of prompts R (RTEC syntax), F/F* (chain-of-thought and
// few-shot demonstrations of simple and statically determined fluents), E
// (input events), T (thresholds) and G (rule generation), the chat session
// that drives a model through them, and the parsing of model responses back
// into event-description clauses.
package prompt

import (
	"fmt"
	"strings"
	"sync"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

// Scheme selects between the prompting routes of Figure 1. The paper's
// pipeline offers few-shot (prompt F*) and chain-of-thought (prompt F);
// zero-shot — skipping the fluent-kind demonstrations entirely — "produced
// poor results" in the paper's empirical analysis and is provided here so
// that finding can be reproduced (see TestZeroShotProducesPoorResults).
type Scheme int

const (
	// FewShot provides example descriptions and formalisations without
	// explanations (prompt F*).
	FewShot Scheme = iota
	// ChainOfThought additionally explains each example formalisation step
	// by step (prompt F).
	ChainOfThought
	// ZeroShot skips prompt F/F* altogether: the model is never shown what
	// simple and statically determined fluent definitions look like.
	ZeroShot
)

func (s Scheme) String() string {
	switch s {
	case FewShot:
		return "few-shot"
	case ChainOfThought:
		return "chain-of-thought"
	case ZeroShot:
		return "zero-shot"
	}
	return "unknown"
}

// Suffix returns the paper's notation for a model/scheme combination:
// squares for few-shot, triangles for chain-of-thought (zero-shot has no
// published notation; a circle is used).
func (s Scheme) Suffix() string {
	switch s {
	case FewShot:
		return "□"
	case ChainOfThought:
		return "△"
	default:
		return "○"
	}
}

// Message is one turn of a chat with a model.
type Message struct {
	Role    string // "user" or "assistant"
	Content string
}

// Model is a chat-completion model: given the conversation so far and the
// next user message, it returns the assistant response. Implemented by the
// simulated models of internal/llm; an OpenAI/Groq API client would
// implement the same interface.
type Model interface {
	Name() string
	Chat(history []Message, user string) (string, error)
}

// EventDoc documents one input event for prompt E.
type EventDoc struct {
	Pattern string // e.g. "entersArea(Vessel, Area)"
	Meaning string
}

// ThresholdDoc documents one threshold for prompt T.
type ThresholdDoc struct {
	Name    string // e.g. "hcNearCoastMax"
	Meaning string
}

// BackgroundDoc documents one background predicate available to rules.
type BackgroundDoc struct {
	Pattern string // e.g. "areaType(Area, AreaType)"
	Meaning string
}

// Domain packages the application-specific content of the prompts: the
// input stream items (prompt E), the thresholds (prompt T) and the
// background predicates, together with the domain vocabulary used by the
// syntactic corrector: canonical constants and the plausible wrong names
// ("aliases") a generator might use for them.
type Domain struct {
	Name       string
	Events     []EventDoc
	Thresholds []ThresholdDoc
	Background []BackgroundDoc
	// Values are the constant values fluents may take (true, below, ...).
	Values []string
	// Constants are further vocabulary names documented only in the prompt
	// prose rather than as a Pattern: area and vessel types, and auxiliary
	// background predicates the rules may call (e.g. oneIsTug).
	Constants []string
	// Aliases maps a canonical name (predicate, constant or fluent) to
	// plausible wrong spellings. The corrector uses it to map unknown names
	// back to vocabulary, modelling the human that renamed 'trawlingArea'
	// to 'fishing' in the paper's evaluation.
	Aliases map[string][]string

	vocabOnce sync.Once
	vocab     *vocabulary
}

// ActivityRequest is one generation step of the pipeline: a composite
// activity to formalise, given by name and natural-language description.
type ActivityRequest struct {
	Key         string // short label, e.g. "tr"
	Name        string // fluent name, e.g. "trawling"
	Description string // natural-language description for prompt G
}

// Validate checks the domain is usable.
func (d *Domain) Validate() error {
	if len(d.Events) == 0 {
		return fmt.Errorf("prompt: domain %q has no input events", d.Name)
	}
	return nil
}

// vocabulary is everything derived from the domain documentation, computed
// on first use: each pattern is parsed once and every accessor below is a
// view of that parse. The maps are shared; callers must not modify them.
type vocabulary struct {
	names      map[string]bool     // KnownNames
	sorts      map[string][]string // ArgSorts
	predicates map[string]bool     // Predicates
	constants  map[string]bool     // ConstantNames
	canonical  map[string]string   // Canonical
}

func (d *Domain) vocabulary() *vocabulary {
	d.vocabOnce.Do(func() {
		v := &vocabulary{names: map[string]bool{}, sorts: map[string][]string{},
			predicates: map[string]bool{"thresholds": true}, constants: map[string]bool{}, canonical: map[string]string{}}
		addPattern := func(p string) {
			t, err := parser.ParseTerm(p)
			if err != nil {
				return
			}
			t.Walk(func(n *lang.Term) bool {
				if n.IsCallable() {
					v.names[n.Functor] = true
				}
				return true
			})
			if !t.IsCallable() {
				return
			}
			v.predicates[t.Functor] = true
			if t.Kind == lang.Compound {
				sorts := make([]string, len(t.Args))
				for i, a := range t.Args {
					if a.Kind == lang.Var {
						sorts[i] = sortName(a.Functor)
					}
				}
				v.sorts[t.Functor] = sorts
			}
		}
		for _, e := range d.Events {
			addPattern(e.Pattern)
		}
		for _, b := range d.Background {
			addPattern(b.Pattern)
		}
		for _, t := range d.Thresholds {
			v.constants[t.Name] = true
		}
		for _, val := range d.Values {
			v.constants[val] = true
		}
		for _, c := range d.Constants {
			v.constants[c] = true
		}
		for name := range v.predicates {
			v.names[name] = true
		}
		for name := range v.constants {
			v.names[name] = true
		}
		for canonical, alts := range d.Aliases {
			for _, a := range alts {
				v.canonical[a] = canonical
			}
		}
		d.vocab = v
	})
	return d.vocab
}

// KnownNames returns the set of vocabulary names the domain documentation
// teaches: the functors and constants occurring in the event and background
// patterns, 'thresholds', the threshold names, the fluent values and the
// extra constants. It is the gold-standard-free vocabulary handed to the
// static analyzer.
func (d *Domain) KnownNames() map[string]bool { return d.vocabulary().names }

// ArgSorts infers the argument-sort table of the documented vocabulary for
// the R013 sort-inference pass: for every event and background pattern, the
// lower-cased argument variable names with trailing digits stripped
// ("Vessel1" -> "vessel"), so a vessel identifier and a speed are different
// sorts wherever they appear.
func (d *Domain) ArgSorts() map[string][]string { return d.vocabulary().sorts }

// Predicates returns the names a rule may call or observe: the functors of
// the event and background patterns, and 'thresholds'.
func (d *Domain) Predicates() map[string]bool { return d.vocabulary().predicates }

// ConstantNames returns the names a rule may use as a constant: the
// threshold names, the fluent values and the extra constants.
func (d *Domain) ConstantNames() map[string]bool { return d.vocabulary().constants }

// Canonical maps a documented wrong spelling back to its vocabulary name.
func (d *Domain) Canonical(alias string) (string, bool) {
	c, ok := d.vocabulary().canonical[alias]
	return c, ok
}

// sortName normalises a pattern variable name into a sort: lower-cased,
// with trailing digits stripped so Vessel1/Vessel2 share the sort "vessel".
func sortName(v string) string {
	v = strings.TrimLeft(v, "_")
	v = strings.TrimRight(v, "0123456789")
	return strings.ToLower(v)
}
