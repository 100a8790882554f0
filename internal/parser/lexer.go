// Package parser implements a lexer and parser for the concrete RTEC dialect
// used in this repository: Prolog-like clauses with ':-' rules, '%' comments,
// upper-case variables, lists, and infix arithmetic/comparison operators.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"rtecgen/internal/lang"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokAtom
	tokVar
	tokInt
	tokFloat
	tokString
	tokPunct // ( ) [ ] , . | and operators := :- = < > >= =< =:= =\= \= + - * /
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// pos returns the source position of the token's first character.
func (t token) pos() lang.Position { return lang.Position{Line: int32(t.line), Col: int32(t.col)} }

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// Error is a parse error carrying source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) errorf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '%':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

// multi-character operators, longest first.
var multiOps = []string{"=:=", "=\\=", ":-", ">=", "=<", "\\=", "<-"}

const singleOps = "()[],.|=<>+-*/"

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (lx *lexer) next() (token, *Error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	c := lx.peekByte()

	// Numbers. A '.' is part of a number only when both neighbours are
	// digits, so the clause terminator "3." lexes as INT then '.'.
	if c >= '0' && c <= '9' {
		start := lx.pos
		for lx.pos < len(lx.src) && lx.peekByte() >= '0' && lx.peekByte() <= '9' {
			lx.advance()
		}
		isFloat := false
		if lx.pos+1 < len(lx.src) && lx.peekByte() == '.' && lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9' {
			isFloat = true
			lx.advance()
			for lx.pos < len(lx.src) && lx.peekByte() >= '0' && lx.peekByte() <= '9' {
				lx.advance()
			}
		}
		// Exponent part, e.g. 1e9 or 2.5e-3.
		if lx.pos < len(lx.src) && (lx.peekByte() == 'e' || lx.peekByte() == 'E') {
			save, sl, sc := lx.pos, lx.line, lx.col
			lx.advance()
			if lx.pos < len(lx.src) && (lx.peekByte() == '+' || lx.peekByte() == '-') {
				lx.advance()
			}
			if lx.pos < len(lx.src) && lx.peekByte() >= '0' && lx.peekByte() <= '9' {
				isFloat = true
				for lx.pos < len(lx.src) && lx.peekByte() >= '0' && lx.peekByte() <= '9' {
					lx.advance()
				}
			} else {
				lx.pos, lx.line, lx.col = save, sl, sc
			}
		}
		kind := tokInt
		if isFloat {
			kind = tokFloat
		}
		return token{kind: kind, text: lx.src[start:lx.pos], line: line, col: col}, nil
	}

	// Identifiers: variables and atoms.
	if isIdentStart(c) {
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if c == '_' || unicode.IsUpper(rune(c)) {
			return token{kind: tokVar, text: text, line: line, col: col}, nil
		}
		return token{kind: tokAtom, text: text, line: line, col: col}, nil
	}

	// Quoted atoms 'like this' keep their spelling without the quotes.
	if c == '\'' {
		lx.advance()
		var b strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errorf(line, col, "unterminated quoted atom")
			}
			ch := lx.advance()
			if ch == '\'' {
				break
			}
			b.WriteByte(ch)
		}
		return token{kind: tokAtom, text: b.String(), line: line, col: col}, nil
	}

	// Strings: scan to the closing unescaped quote, then decode with the
	// full Go escape syntax (the printer uses strconv.Quote).
	if c == '"' {
		start := lx.pos
		lx.advance()
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errorf(line, col, "unterminated string")
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if lx.pos >= len(lx.src) {
					return token{}, lx.errorf(line, col, "unterminated string")
				}
				lx.advance()
			}
			if ch == '\n' {
				return token{}, lx.errorf(line, col, "newline in string")
			}
		}
		text, err := strconv.Unquote(lx.src[start:lx.pos])
		if err != nil {
			return token{}, lx.errorf(line, col, "bad string literal: %v", err)
		}
		return token{kind: tokString, text: text, line: line, col: col}, nil
	}

	// Multi-character operators, longest match first.
	for _, op := range multiOps {
		if strings.HasPrefix(lx.src[lx.pos:], op) {
			for range op {
				lx.advance()
			}
			return token{kind: tokPunct, text: op, line: line, col: col}, nil
		}
	}
	if strings.IndexByte(singleOps, c) >= 0 {
		lx.advance()
		return token{kind: tokPunct, text: string(c), line: line, col: col}, nil
	}
	return token{}, lx.errorf(line, col, "unexpected character %q", string(c))
}
