package prompt

import (
	"fmt"
	"strings"

	"rtecgen/internal/analysis"
	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
	"rtecgen/internal/telemetry"
)

// Session drives a model through the prompting pipeline of Figure 1: teach
// the RTEC syntax (prompt R), the fluent kinds (prompt F or F*), the input
// events (prompt E) and the thresholds (prompt T), then request activity
// formalisations one by one (prompt G).
type Session struct {
	model   Model
	scheme  Scheme
	domain  *Domain
	history []Message
	taught  bool
	tel     *telemetry.Telemetry // may be nil
	span    *telemetry.Span      // pipeline root span, parent of per-prompt spans
}

// NewSession creates a session for a model and prompting scheme.
func NewSession(model Model, scheme Scheme, domain *Domain) *Session {
	return &Session{model: model, scheme: scheme, domain: domain}
}

// NewSessionWith is NewSession with observability: per-prompt spans
// (children of span, which may be nil) and structured debug logs carrying
// the prompt/response sizes are recorded on tel.
func NewSessionWith(tel *telemetry.Telemetry, span *telemetry.Span, model Model, scheme Scheme, domain *Domain) *Session {
	return &Session{model: model, scheme: scheme, domain: domain, tel: tel, span: span}
}

// send delivers a user message and records the exchange. label names the
// prompt of Figure 1 ("R", "F", "E", "T", "G:<activity>") on the span and
// the logs.
func (s *Session) send(label, user string) (string, error) {
	sp := s.span.Span("pipeline.prompt",
		telemetry.String("prompt", label), telemetry.String("model", s.model.Name()))
	defer sp.End()
	reply, err := s.model.Chat(s.history, user)
	if err != nil {
		return "", fmt.Errorf("prompt: model %s: %w", s.model.Name(), err)
	}
	s.tel.Logger().Debug("prompt exchanged",
		"component", "pipeline", "model", s.model.Name(), "scheme", s.scheme.String(),
		"prompt", label, "prompt_bytes", len(user), "response_bytes", len(reply))
	s.history = append(s.history, Message{Role: "user", Content: user},
		Message{Role: "assistant", Content: reply})
	return reply, nil
}

// Label renders the model/scheme notation of the paper, e.g. "o1□".
func (s *Session) Label() string { return s.model.Name() + s.scheme.Suffix() }

// Teach runs prompts R, F/F*, E and T, in order. Under zero-shot prompting
// the fluent-kind demonstration (prompt F/F*) is skipped.
func (s *Session) Teach() error {
	if err := s.domain.Validate(); err != nil {
		return err
	}
	type step struct{ label, text string }
	steps := []step{{"R", BuildR()}}
	if s.scheme != ZeroShot {
		steps = append(steps, step{"F", BuildF(s.scheme)})
	}
	steps = append(steps, step{"E", BuildE(s.domain)}, step{"T", BuildT(s.domain)})
	for _, p := range steps {
		if _, err := s.send(p.label, p.text); err != nil {
			return err
		}
	}
	s.taught = true
	return nil
}

// Generate runs prompt G for one activity and returns the raw model output.
func (s *Session) Generate(req ActivityRequest) (string, error) {
	if !s.taught {
		return "", fmt.Errorf("prompt: Generate before Teach")
	}
	return s.send("G:"+req.Key, BuildG(req))
}

// Critique sends prompt C for one activity: the diagnostics that the
// autofixer could not discharge, followed by a request to revise the
// activity's formalisation. The reply is the model's revised answer for that
// activity, in the same shape as a Generate reply.
func (s *Session) Critique(req ActivityRequest, diags []analysis.Diagnostic) (string, error) {
	if !s.taught {
		return "", fmt.Errorf("prompt: Critique before Teach")
	}
	return s.send("C:"+req.Key, BuildC(req, diags))
}

// History returns the transcript so far.
func (s *Session) History() []Message { return append([]Message(nil), s.history...) }

// ActivityResult is the outcome of one generation step: the raw response,
// the clauses that parsed, and the chunks that failed to parse.
type ActivityResult struct {
	Request ActivityRequest
	Raw     string
	Clauses []*lang.Clause
	Errors  []string
}

// GeneratedED is the full result of running the pipeline over a curriculum:
// the per-activity results in order, and the combined event description.
// Transcript is the conversation they were generated in, every prompt and
// reply in order (RunPipeline records it); Resume continues it.
type GeneratedED struct {
	ModelName  string
	Scheme     Scheme
	Results    []ActivityResult
	Transcript []Message
}

// Resume returns a session that continues the conversation g was generated
// in, on model: the session is taught and its history is a copy of g's
// transcript, so the session's turns never reach g. Per-prompt spans are
// children of span (may be nil) on tel. A generation without a transcript,
// or one asked to continue under another model, is refused.
func (g *GeneratedED) Resume(tel *telemetry.Telemetry, span *telemetry.Span, model Model, domain *Domain) (*Session, error) {
	if len(g.Transcript) == 0 {
		return nil, fmt.Errorf("prompt: %s has no transcript to resume", g.Label())
	}
	if model.Name() != g.ModelName {
		return nil, fmt.Errorf("prompt: %s cannot be resumed by model %s", g.Label(), model.Name())
	}
	s := NewSessionWith(tel, span, model, g.Scheme, domain)
	s.history = append([]Message(nil), g.Transcript...)
	s.taught = true
	return s, nil
}

// Lint runs the static analyzer of internal/analysis over the combined
// event description, using the domain documentation as the vocabulary and
// treating each requested activity as a deliverable root (so top-level
// activities are not flagged as unused).
func (g *GeneratedED) Lint(domain *Domain) *analysis.Report {
	return g.LintWith(nil, domain)
}

// LintWith is Lint under a "pipeline.lint" span on tel (may be nil), with
// per-pass spans inside the analyzer.
func (g *GeneratedED) LintWith(tel *telemetry.Telemetry, domain *Domain) *analysis.Report {
	sp := tel.Span("pipeline.lint", telemetry.String("model", g.Label()))
	defer sp.End()
	roots := map[string]bool{}
	for _, r := range g.Results {
		roots[r.Request.Name] = true
	}
	rep := analysis.Analyze(g.ED(), analysis.Options{
		Vocabulary: domain.KnownNames(),
		Roots:      roots,
		Span:       sp,
	})
	sp.SetAttrs(telemetry.Int("diagnostics", int64(len(rep.Diagnostics))))
	return rep
}

// Label renders the paper's notation for this event description, e.g.
// "o1□" or "GPT-4o△".
func (g *GeneratedED) Label() string { return g.ModelName + g.Scheme.Suffix() }

// ED returns the combined event description: all parsed clauses, in
// curriculum order.
func (g *GeneratedED) ED() *lang.EventDescription {
	ed := &lang.EventDescription{}
	for _, r := range g.Results {
		ed.Clauses = append(ed.Clauses, r.Clauses...)
	}
	return ed
}

// ResultFor returns the result for an activity key.
func (g *GeneratedED) ResultFor(key string) (ActivityResult, bool) {
	for _, r := range g.Results {
		if r.Request.Key == key {
			return r, true
		}
	}
	return ActivityResult{}, false
}

// ParseErrors returns all parse errors across activities.
func (g *GeneratedED) ParseErrors() []string {
	var out []string
	for _, r := range g.Results {
		for _, e := range r.Errors {
			out = append(out, r.Request.Key+": "+e)
		}
	}
	return out
}

// RunPipeline teaches the model and generates a definition for every
// curriculum entry, parsing each response. A model-side error aborts and
// is returned (wrapped; errors.Is sees the model's error). Parse errors are
// recorded per activity and skipped, since a human would discard unusable
// output (Section 4 measures exactly this correction effort).
func RunPipeline(model Model, scheme Scheme, domain *Domain, curriculum []ActivityRequest) (*GeneratedED, error) {
	return RunPipelineWith(nil, model, scheme, domain, curriculum)
}

// RunPipelineWith is RunPipeline with observability: a "pipeline.run" root
// span with per-prompt and per-parse children. A nil tel costs only nil
// checks.
func RunPipelineWith(tel *telemetry.Telemetry, model Model, scheme Scheme, domain *Domain, curriculum []ActivityRequest) (*GeneratedED, error) {
	root := tel.Span("pipeline.run",
		telemetry.String("model", model.Name()), telemetry.String("scheme", scheme.String()),
		telemetry.Int("curriculum", int64(len(curriculum))))
	defer root.End()
	s := NewSessionWith(tel, root, model, scheme, domain)
	if err := s.Teach(); err != nil {
		return nil, err
	}
	out := &GeneratedED{ModelName: model.Name(), Scheme: scheme}
	for _, req := range curriculum {
		raw, err := s.Generate(req)
		if err != nil {
			return nil, err
		}
		psp := root.Span("pipeline.parse", telemetry.String("activity", req.Key))
		clauses, errs := ParseResponse(raw)
		psp.SetAttrs(telemetry.Int("clauses", int64(len(clauses))), telemetry.Int("errors", int64(len(errs))))
		psp.End()
		if len(errs) > 0 {
			tel.Logger().Debug("unparseable response chunks",
				"component", "pipeline", "model", model.Name(), "scheme", scheme.String(),
				"activity", req.Key, "errors", len(errs))
		}
		out.Results = append(out.Results, ActivityResult{
			Request: req, Raw: raw, Clauses: clauses, Errors: errs,
		})
	}
	out.Transcript = s.history
	return out, nil
}

// ParseResponse extracts RTEC clauses from a model response. The response
// may interleave prose with rules; chunks are delimited by blank lines and
// a chunk is kept when it parses as a clause sequence. Chunks that look
// like rules (contain ':-') but fail to parse are reported as errors.
func ParseResponse(raw string) (clauses []*lang.Clause, errs []string) {
	for _, chunk := range splitChunks(raw) {
		ed, err := parser.ParseEventDescription(chunk)
		if err == nil {
			clauses = append(clauses, ed.Clauses...)
			continue
		}
		if strings.Contains(chunk, ":-") {
			errs = append(errs, fmt.Sprintf("unparseable rule chunk: %v", err))
		}
	}
	return clauses, errs
}

// splitChunks splits a response on blank lines, keeping multi-line rules
// together (a rule continues until a line ending with '.').
func splitChunks(raw string) []string {
	var chunks []string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			chunks = append(chunks, strings.Join(cur, "\n"))
			cur = nil
		}
	}
	for _, line := range strings.Split(raw, "\n") {
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		cur = append(cur, line)
	}
	flush()
	return chunks
}
