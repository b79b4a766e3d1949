// Package lexer turns OBL source text into tokens. Comments run from // to
// end of line. Whitespace is insignificant.
package lexer

import (
	"fmt"

	"repro/internal/obl/token"
)

// Lexer scans one source buffer.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(p token.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) bump() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.bump()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.bump()
			}
		case c == '/' && l.peek2() == '*':
			p := l.pos()
			l.bump()
			l.bump()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.bump()
					l.bump()
					closed = true
					break
				}
				l.bump()
			}
			if !closed {
				l.errorf(p, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns EOF forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	p := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: p}
	}
	c := l.peek()
	switch {
	case isAlpha(c):
		start := l.off
		for l.off < len(l.src) && (isAlpha(l.peek()) || isDigit(l.peek())) {
			l.bump()
		}
		word := l.src[start:l.off]
		if k, ok := token.Keywords[word]; ok {
			return token.Token{Kind: k, Lit: word, Pos: p}
		}
		return token.Token{Kind: token.Ident, Lit: word, Pos: p}
	case isDigit(c):
		return l.number(p)
	}
	l.bump()
	two := func(next byte, with, without token.Kind) token.Token {
		if l.peek() == next {
			l.bump()
			return token.Token{Kind: with, Pos: p}
		}
		return token.Token{Kind: without, Pos: p}
	}
	switch c {
	case '(':
		return token.Token{Kind: token.LParen, Pos: p}
	case ')':
		return token.Token{Kind: token.RParen, Pos: p}
	case '{':
		return token.Token{Kind: token.LBrace, Pos: p}
	case '}':
		return token.Token{Kind: token.RBrace, Pos: p}
	case '[':
		return token.Token{Kind: token.LBracket, Pos: p}
	case ']':
		return token.Token{Kind: token.RBracket, Pos: p}
	case ';':
		return token.Token{Kind: token.Semicolon, Pos: p}
	case ':':
		return token.Token{Kind: token.Colon, Pos: p}
	case ',':
		return token.Token{Kind: token.Comma, Pos: p}
	case '.':
		return two('.', token.DotDot, token.Dot)
	case '=':
		return two('=', token.Eq, token.Assign)
	case '+':
		return token.Token{Kind: token.Plus, Pos: p}
	case '-':
		return token.Token{Kind: token.Minus, Pos: p}
	case '*':
		return token.Token{Kind: token.Star, Pos: p}
	case '/':
		return token.Token{Kind: token.Slash, Pos: p}
	case '%':
		return token.Token{Kind: token.Percent, Pos: p}
	case '<':
		return two('=', token.LtEq, token.Lt)
	case '>':
		return two('=', token.GtEq, token.Gt)
	case '!':
		return two('=', token.NotEq, token.Not)
	case '&':
		if l.peek() == '&' {
			l.bump()
			return token.Token{Kind: token.AndAnd, Pos: p}
		}
	case '|':
		if l.peek() == '|' {
			l.bump()
			return token.Token{Kind: token.OrOr, Pos: p}
		}
	}
	l.errorf(p, "unexpected character %q", string(c))
	return token.Token{Kind: token.Illegal, Lit: string(c), Pos: p}
}

func (l *Lexer) number(p token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.bump()
	}
	isFloat := false
	// A '.' begins a fraction only if not the '..' range operator.
	if l.peek() == '.' && l.peek2() != '.' && isDigit(l.peek2()) {
		isFloat = true
		l.bump()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.bump()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.off
		l.bump()
		if l.peek() == '+' || l.peek() == '-' {
			l.bump()
		}
		if isDigit(l.peek()) {
			isFloat = true
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.bump()
			}
		} else {
			// Not an exponent; back out (e.g. "1e" followed by an ident).
			l.off = save
		}
	}
	lit := l.src[start:l.off]
	if isFloat {
		return token.Token{Kind: token.Float, Lit: lit, Pos: p}
	}
	return token.Token{Kind: token.Int, Lit: lit, Pos: p}
}
