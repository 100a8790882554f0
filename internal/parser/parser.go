package parser

import (
	"fmt"
	"strconv"

	"rtecgen/internal/lang"
)

// parser is a recursive-descent parser with precedence climbing for the
// infix operators of the dialect.
type parser struct {
	lx  *lexer
	tok token
	// peeked is the one-token lookahead, valid while hasPeek is set. It is
	// held by value so that a peek does not move the token to the heap.
	peeked  token
	hasPeek bool
	anon    int // counter for fresh names of anonymous variables
}

func newParser(src string) (*parser, *Error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() *Error {
	if p.hasPeek {
		p.tok, p.hasPeek = p.peeked, false
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peek() (token, *Error) {
	if !p.hasPeek {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.peeked, p.hasPeek = t, true
	}
	return p.peeked, nil
}

func (p *parser) errorf(format string, args ...any) *Error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) isPunct(text string) bool {
	return p.tok.kind == tokPunct && p.tok.text == text
}

func (p *parser) expectPunct(text string) *Error {
	if !p.isPunct(text) {
		return p.errorf("expected %q, found %s", text, p.tok)
	}
	return p.advance()
}

// parseExpr parses an expression whose operators (lang's operator table)
// all have precedence >= minPrec, climbing for tighter operators. The
// returned term carries the source position of its first token.
func (p *parser) parseExpr(minPrec int) (*lang.Term, *Error) {
	start := p.tok.pos()
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok.kind != tokPunct {
			return left, nil
		}
		op, ok := lang.Operator(p.tok.text)
		if !ok || op.Prec < minPrec {
			return left, nil
		}
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Comparisons are non-associative: the right operand may only
		// contain tighter operators.
		right, err := p.parseExpr(op.Prec + 1)
		if err != nil {
			return nil, err
		}
		left = lang.NewCompound(name, left, right)
		left.Pos = start
	}
}

// parsePrimary parses one primary term and stamps it with the position of
// its first token.
func (p *parser) parsePrimary() (*lang.Term, *Error) {
	pos := p.tok.pos()
	t, err := p.parsePrimary0()
	if err != nil {
		return nil, err
	}
	t.Pos = pos
	return t, nil
}

func (p *parser) parsePrimary0() (*lang.Term, *Error) {
	switch p.tok.kind {
	case tokInt:
		v, convErr := strconv.ParseInt(p.tok.text, 10, 64)
		if convErr != nil {
			return nil, p.errorf("bad integer %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return lang.NewInt(v), nil
	case tokFloat:
		v, convErr := strconv.ParseFloat(p.tok.text, 64)
		if convErr != nil {
			return nil, p.errorf("bad float %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return lang.NewFloat(v), nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return lang.NewStr(s), nil
	case tokVar:
		name := p.tok.text
		if name == "_" {
			p.anon++
			name = fmt.Sprintf("_Anon%d", p.anon)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return lang.NewVar(name), nil
	case tokAtom:
		name := p.tok.text
		next, err := p.peek()
		if err != nil {
			return nil, err
		}
		if next.kind == tokPunct && next.text == "(" {
			if err := p.advance(); err != nil { // onto '('
				return nil, err
			}
			if err := p.advance(); err != nil { // past '('
				return nil, err
			}
			args, aerr := p.parseArgs(")")
			if aerr != nil {
				return nil, aerr
			}
			return lang.NewCompound(name, args...), nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return lang.NewAtom(name), nil
	case tokPunct:
		switch p.tok.text {
		case "(":
			if err := p.advance(); err != nil {
				return nil, err
			}
			t, err := p.parseExpr(1)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return t, nil
		case "[":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isPunct("]") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				return lang.NewList(), nil
			}
			elems, err := p.parseArgs("]")
			if err != nil {
				return nil, err
			}
			return lang.NewList(elems...), nil
		case "-":
			// Unary minus: only over numeric literals or parenthesised
			// expressions, producing a negative constant or '-'(0, X).
			if err := p.advance(); err != nil {
				return nil, err
			}
			operand, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			switch operand.Kind {
			case lang.Int:
				return lang.NewInt(-operand.Int), nil
			case lang.Float:
				v, _ := operand.Number()
				return lang.NewFloat(-v), nil
			default:
				return lang.NewCompound("-", lang.NewInt(0), operand), nil
			}
		}
	}
	return nil, p.errorf("unexpected %s", p.tok)
}

// parseArgs parses a comma-separated list of expressions terminated by the
// given closing punctuation, consuming the closer.
func (p *parser) parseArgs(closer string) ([]*lang.Term, *Error) {
	var args []*lang.Term
	for {
		t, err := p.parseExpr(1)
		if err != nil {
			return nil, err
		}
		args = append(args, t)
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.expectPunct(closer); err != nil {
			return nil, err
		}
		return args, nil
	}
}

// parseLiteral parses one body condition, handling 'not' both as a prefix
// keyword and as a unary compound not(...).
func (p *parser) parseLiteral() (lang.Literal, *Error) {
	if p.tok.kind == tokAtom && p.tok.text == "not" {
		next, err := p.peek()
		if err != nil {
			return lang.Literal{}, err
		}
		// "not foo(X)" — prefix form. "not(foo(X))" parses as a compound
		// below and is normalised afterwards.
		if !(next.kind == tokPunct && next.text == "(") {
			if err := p.advance(); err != nil {
				return lang.Literal{}, err
			}
			atom, aerr := p.parseExpr(1)
			if aerr != nil {
				return lang.Literal{}, aerr
			}
			return lang.Neg(atom), nil
		}
	}
	t, err := p.parseExpr(1)
	if err != nil {
		return lang.Literal{}, err
	}
	if t.Kind == lang.Compound && t.Functor == "not" && len(t.Args) == 1 {
		return lang.Neg(t.Args[0]), nil
	}
	return lang.Pos(t), nil
}

// parseClause parses one clause terminated by '.'; returns nil at EOF.
func (p *parser) parseClause() (*lang.Clause, *Error) {
	if p.tok.kind == tokEOF {
		return nil, nil
	}
	head, err := p.parseExpr(1)
	if err != nil {
		return nil, err
	}
	if !head.IsCallable() {
		return nil, p.errorf("clause head must be an atom or compound, found %s", head)
	}
	c := &lang.Clause{Head: head, Pos: head.Pos}
	if p.isPunct(":-") || p.isPunct("<-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			lit, lerr := p.parseLiteral()
			if lerr != nil {
				return nil, lerr
			}
			c.Body = append(c.Body, lit)
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectPunct("."); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseTerm parses a single term from src.
func ParseTerm(src string) (*lang.Term, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	t, err := p.parseExpr(1)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("trailing input after term: %s", p.tok)
	}
	return t, nil
}

// ParseClause parses a single clause (terminated by '.') from src.
func ParseClause(src string) (*lang.Clause, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	c, err := p.parseClause()
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, &Error{Line: 1, Col: 1, Msg: "empty input"}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("trailing input after clause: %s", p.tok)
	}
	return c, nil
}

// ParseEventDescription parses a whole event description: a sequence of
// clauses. On error it reports the position of the first offending token.
func ParseEventDescription(src string) (*lang.EventDescription, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	ed := &lang.EventDescription{}
	for {
		c, cerr := p.parseClause()
		if cerr != nil {
			return nil, cerr
		}
		if c == nil {
			return ed, nil
		}
		ed.Clauses = append(ed.Clauses, c)
	}
}

// MustParseEventDescription parses src and panics on error. It is intended
// for embedded, compile-time-known event descriptions such as the gold
// standard.
func MustParseEventDescription(src string) *lang.EventDescription {
	ed, err := ParseEventDescription(src)
	if err != nil {
		panic(fmt.Sprintf("parser: invalid embedded event description: %v", err))
	}
	return ed
}

// MustParseClause parses a single clause and panics on error.
func MustParseClause(src string) *lang.Clause {
	c, err := ParseClause(src)
	if err != nil {
		panic(fmt.Sprintf("parser: invalid embedded clause: %v", err))
	}
	return c
}

// MustParseTerm parses a single term and panics on error.
func MustParseTerm(src string) *lang.Term {
	t, err := ParseTerm(src)
	if err != nil {
		panic(fmt.Sprintf("parser: invalid embedded term: %v", err))
	}
	return t
}
