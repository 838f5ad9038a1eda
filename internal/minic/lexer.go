// Package minic implements a small C-like front-end that lowers source text
// to KIR (internal/ir). MiniC covers the subset of C that drives pointer
// analysis and the paper's imprecision idioms: structs with function-pointer
// fields, multi-level pointers, arbitrary pointer arithmetic (*(p+i)),
// heap allocation via malloc(sizeof(T)), function pointers and indirect
// calls, arrays, and ordinary control flow.
package minic

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokPunct   // ( ) { } [ ] ; , . -> & * + - / % = == != < <= > >= ! && ||
	tokKeyword // struct global if else while return int char void fn malloc sizeof input output null
)

var keywords = map[string]bool{
	"struct": true, "if": true, "else": true, "while": true, "for": true,
	"break": true, "continue": true, "return": true,
	"int": true, "char": true, "void": true, "fn": true,
	"malloc": true, "sizeof": true, "input": true, "output": true, "null": true,
}

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

// Error is a front-end diagnostic with a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("minic: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// lexer scans MiniC source one token at a time; the parser pulls tokens
// through a three-token window (parser.go), so compiling holds no token
// table and a token costs no allocation: its text is a substring of the
// source. The first lex error stops the scan: from then on next returns
// tokEOF and err holds the error.
type lexer struct {
	src  string
	pos  int
	line int
	err  error
}

// next scans and returns the next token, or tokEOF at the end of the
// source or after a lex error.
func (l *lexer) next() token {
	if l.err != nil {
		return token{kind: tokEOF, line: l.line}
	}
	if l.err = l.skipSpaceAndComments(); l.err != nil || l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: l.line}
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		return token{kind: tokInt, text: l.src[start:l.pos], line: l.line}
	}
	p, err := l.punct()
	if err != nil {
		l.err = err
		return token{kind: tokEOF, line: l.line}
	}
	return token{kind: tokPunct, text: p, line: l.line}
}

// finish scans what the parser left unread and returns the source's first
// lex error, or nil. A lex error anywhere outranks any parse error, so
// Compile reports this before the parser's own diagnostic.
func (l *lexer) finish() error {
	for l.next().kind != tokEOF {
	}
	return l.err
}

// skipSpaceAndComments advances past whitespace and comments. A block
// comment without its closing "*/" is an error at the line it opened on.
func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			body := l.src[l.pos+2:]
			end := strings.Index(body, "*/")
			if end < 0 {
				return errf(l.line, "unterminated /* comment")
			}
			l.line += strings.Count(body[:end], "\n")
			l.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

// punct lexes one punctuator, two-character ones first. Its text is a
// substring of the source, so a token costs no allocation of its own.
func (l *lexer) punct() (string, error) {
	rest := l.src[l.pos:]
	if len(rest) >= 2 {
		switch rest[:2] {
		case "->", "==", "!=", "<=", ">=", "&&", "||":
			l.pos += 2
			return rest[:2], nil
		}
	}
	c := l.src[l.pos]
	if strings.IndexByte("(){}[];,.&*+-/%=<>!", c) >= 0 {
		l.pos++
		return rest[:1], nil
	}
	return "", errf(l.line, "unexpected character %q", c)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }
