// Command gen runs the prompting pipeline of Section 3 against one of the
// simulated models, printing the generated event description (optionally
// after the minimal syntactic corrections of Section 5.2) or the full
// prompt/response transcript.
//
// Usage:
//
//	gen -model o1 [-scheme few-shot|cot] [-correct] [-transcript] [-activity key]
package main

import (
	"flag"
	"fmt"
	"os"

	"rtecgen/internal/correct"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
)

// options carries every flag of the command.
type options struct {
	model, scheme, activity      string
	applyCorrections, transcript bool
}

func main() {
	var o options
	flag.StringVar(&o.model, "model", "o1", "model name (GPT-4, GPT-4o, o1, Llama-3, Mistral, Gemma-2)")
	flag.StringVar(&o.scheme, "scheme", "few-shot", "prompting scheme: few-shot or cot")
	flag.BoolVar(&o.applyCorrections, "correct", false, "apply the minimal syntactic corrector to the output")
	flag.BoolVar(&o.transcript, "transcript", false, "print the full prompt/response transcript instead of the rules")
	flag.StringVar(&o.activity, "activity", "", "only print the result for this activity key (e.g. tr)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	m, err := llm.New(o.model)
	if err != nil {
		return err
	}
	var scheme prompt.Scheme
	switch o.scheme {
	case "few-shot":
		scheme = prompt.FewShot
	case "cot", "chain-of-thought":
		scheme = prompt.ChainOfThought
	default:
		return fmt.Errorf("unknown scheme %q", o.scheme)
	}
	domain := maritime.PromptDomain()

	if o.transcript {
		s := prompt.NewSession(m, scheme, domain)
		if err := s.Teach(); err != nil {
			return err
		}
		for _, req := range maritime.CurriculumRequests() {
			if o.activity != "" && req.Key != o.activity {
				continue
			}
			if _, err := s.Generate(req); err != nil {
				return err
			}
		}
		for _, msg := range s.History() {
			fmt.Printf("--- %s ---\n%s\n\n", msg.Role, msg.Content)
		}
		return nil
	}

	gen, err := prompt.RunPipeline(m, scheme, domain, maritime.CurriculumRequests())
	if err != nil {
		return err
	}
	if o.applyCorrections {
		cor := correct.Apply(gen, domain)
		fmt.Fprintf(os.Stderr, "corrections: %s\n", cor.Summary())
		gen = cor.Gen
	}
	for _, e := range gen.ParseErrors() {
		fmt.Fprintln(os.Stderr, "parse error:", e)
	}
	for _, r := range gen.Results {
		if o.activity != "" && r.Request.Key != o.activity {
			continue
		}
		fmt.Printf("%% ----- %s (%s) -----\n", r.Request.Name, r.Request.Key)
		for _, c := range r.Clauses {
			fmt.Println(c)
			fmt.Println()
		}
	}
	return nil
}
