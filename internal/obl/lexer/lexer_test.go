package lexer

import (
	"testing"

	"repro/internal/obl/token"
)

// all scans the entire input and returns every token up to and including
// EOF.
func all(src string) []token.Token {
	l := New(src)
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}

func kinds(src string) []token.Kind {
	toks := all(src)
	out := make([]token.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	got := kinds("class Body { pos: float; }")
	want := []token.Kind{
		token.KwClass, token.Ident, token.LBrace, token.Ident, token.Colon,
		token.KwFloatType, token.Semicolon, token.RBrace, token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestOperators(t *testing.T) {
	got := kinds("a == b != c <= d >= e && f || !g .. . = < >")
	want := []token.Kind{
		token.Ident, token.Eq, token.Ident, token.NotEq, token.Ident,
		token.LtEq, token.Ident, token.GtEq, token.Ident, token.AndAnd,
		token.Ident, token.OrOr, token.Not, token.Ident, token.DotDot,
		token.Dot, token.Assign, token.Lt, token.Gt, token.EOF,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	toks := all("42 3.5 1e6 2.5e-3 0..10")
	wantKinds := []token.Kind{token.Int, token.Float, token.Float, token.Float, token.Int, token.DotDot, token.Int, token.EOF}
	wantLits := []string{"42", "3.5", "1e6", "2.5e-3", "0", "", "10", ""}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v (%q), want %v", i, toks[i].Kind, toks[i].Lit, k)
		}
		if wantLits[i] != "" && toks[i].Lit != wantLits[i] {
			t.Errorf("token %d lit = %q, want %q", i, toks[i].Lit, wantLits[i])
		}
	}
}

func TestRangeAfterNumberIsNotFloat(t *testing.T) {
	toks := all("for i in 0..n")
	// 0 must lex as Int, then DotDot.
	if toks[3].Kind != token.Int || toks[4].Kind != token.DotDot {
		t.Fatalf("got %v %v, want Int DotDot", toks[3], toks[4])
	}
}

func TestComments(t *testing.T) {
	got := kinds("a // comment with class keywords\nb")
	want := []token.Kind{token.Ident, token.Ident, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPositions(t *testing.T) {
	toks := all("a\n  bb")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("bb at %v, want 2:3", toks[1].Pos)
	}
}

func TestIllegal(t *testing.T) {
	l := New("a @ b")
	for {
		tok := l.Next()
		if tok.Kind == token.EOF {
			break
		}
	}
	if len(l.Errors()) != 1 {
		t.Errorf("errors = %v, want 1 error", l.Errors())
	}
}

func TestKeywordsAll(t *testing.T) {
	for word, kind := range token.Keywords {
		toks := all(word)
		if toks[0].Kind != kind {
			t.Errorf("%q lexed as %v, want %v", word, toks[0].Kind, kind)
		}
	}
}

func TestBlockComments(t *testing.T) {
	got := kinds("a /* stuff\nover lines */ b")
	want := []token.Kind{token.Ident, token.Ident, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	l := New("a /* unterminated")
	for l.Next().Kind != token.EOF {
	}
	if len(l.Errors()) == 0 {
		t.Error("unterminated block comment not reported")
	}
}
