package analysis

import (
	"errors"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

// SyntaxCode is the diagnostic code of parse failures. It is not a pass —
// an unparseable description never reaches the analyzer — but callers that
// parse and analyze in one step (cmd/rteclint, the generation pipeline)
// report parse errors through the same Diagnostic channel under this code.
const SyntaxCode = "R000"

// SyntaxError converts a parse failure into an R000 diagnostic, carrying
// the parser's error position when it has one.
func SyntaxError(err error) Diagnostic {
	d := Diagnostic{Code: SyntaxCode, Severity: Error, Message: err.Error()}
	var pe *parser.Error
	if errors.As(err, &pe) {
		d.Pos = lang.Position{Line: int32(pe.Line), Col: int32(pe.Col)}
		d.Message = pe.Msg
	}
	return d
}

// AnalyzeSource parses src and, on success, analyzes it with the source
// text attached (so diagnostics carry suggested fixes). On a parse failure
// the report holds the single R000 diagnostic.
func AnalyzeSource(src string, opts Options) *Report {
	_, rep := analyzeSource(src, opts)
	return rep
}

// analyzeSource is AnalyzeSource that also returns the parsed event
// description, nil when src does not parse.
func analyzeSource(src string, opts Options) (*lang.EventDescription, *Report) {
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		return nil, &Report{Diagnostics: []Diagnostic{SyntaxError(err)}}
	}
	opts.Source = src
	return ed, Analyze(ed, opts)
}
