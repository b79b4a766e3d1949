package ast

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/obl/token"
)

func exampleFunc() *FuncDecl {
	pos := token.Pos{Line: 1, Col: 1}
	return &FuncDecl{
		P: pos, Class: "C", Name: "m",
		Params: []*ParamSpec{{Name: "x", Type: &PrimType{Name: "float"}}},
		Result: &PrimType{Name: "float"},
		Body: &Block{Stmts: []Stmt{
			&LetStmt{Name: "t", Type: &PrimType{Name: "float"},
				Init: &BinExpr{Op: token.Star, L: &Ident{Name: "x"}, R: &FloatLit{Val: 2}}},
			&IfStmt{
				Cond: &BinExpr{Op: token.Lt, L: &Ident{Name: "t"}, R: &FloatLit{Val: 10}},
				Then: &Block{Stmts: []Stmt{
					&AssignStmt{LHS: &FieldExpr{X: &ThisExpr{}, Name: "v"},
						RHS: &Ident{Name: "t"}},
				}},
				Else: &Block{Stmts: []Stmt{
					&PrintStmt{X: &Ident{Name: "t"}},
				}},
			},
			&WhileStmt{Cond: &BoolLit{Val: false}, Body: &Block{}},
			&ForStmt{Var: "i", Lo: &IntLit{Val: 0}, Hi: &IntLit{Val: 3},
				Body: &Block{Stmts: []Stmt{
					&ExprStmt{X: &CallExpr{Recv: &ThisExpr{}, Name: "helper",
						Args: []Expr{&IndexExpr{X: &Ident{Name: "a"}, Index: &Ident{Name: "i"}}}}},
				}}},
			&SyncBlock{Lock: &ThisExpr{}, Body: &Block{Stmts: []Stmt{
				&AssignStmt{LHS: &FieldExpr{X: &ThisExpr{}, Name: "v"},
					RHS: &UnExpr{Op: token.Minus, X: &Ident{Name: "t"}}},
			}}},
			&ReturnStmt{X: &FieldExpr{X: &ThisExpr{}, Name: "v"}},
		}},
	}
}

func TestCloneFuncDeepIndependence(t *testing.T) {
	orig := exampleFunc()
	before := PrintFunc(orig)
	cp := CloneFunc(orig)
	if PrintFunc(cp) != before {
		t.Fatal("clone prints differently")
	}
	// Mutate every level of the clone.
	cp.Name = "other"
	cp.Params[0].Name = "y"
	cp.Body.Stmts = cp.Body.Stmts[:1]
	if PrintFunc(orig) != before {
		t.Error("mutating clone changed the original")
	}
}

func TestCloneNilHandling(t *testing.T) {
	if CloneFunc(nil) != nil {
		t.Error("CloneFunc(nil) != nil")
	}
	if CloneExpr(nil) != nil {
		t.Error("CloneExpr(nil) != nil")
	}
	if CloneType(nil) != nil {
		t.Error("CloneType(nil) != nil")
	}
	if CloneBlock(nil) != nil {
		t.Error("CloneBlock(nil) != nil")
	}
}

func TestPrintCoversAllConstructs(t *testing.T) {
	text := PrintFunc(exampleFunc())
	for _, want := range []string{
		"method m(x: float): float",
		"let t: float = (x * 2.0)",
		"if (t < 10.0)",
		"else",
		"print t;",
		"while false",
		"for i in 0..3",
		"this.helper(a[i])",
		"acquire(this.mutex)",
		"release",
		"return this.v;",
		"-t",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("printed function missing %q:\n%s", want, text)
		}
	}
}

func TestPrintConditionalSite(t *testing.T) {
	f := &FuncDecl{Name: "f", Body: &Block{Stmts: []Stmt{
		&SyncBlock{Lock: &Ident{Name: "o"}, Site: 3, Body: &Block{}},
	}}}
	if !strings.Contains(PrintFunc(f), "acquire.if(site3, o.mutex)") {
		t.Errorf("conditional site not printed:\n%s", PrintFunc(f))
	}
}

func TestTypeStrings(t *testing.T) {
	at := &ArrayType{Elem: &ArrayType{Elem: &ClassType{Name: "Body"}}}
	if got := at.String(); got != "Body[][]" {
		t.Errorf("nested array type = %q", got)
	}
	if (&PrimType{Name: "int"}).String() != "int" {
		t.Error("prim type string wrong")
	}
}

func TestFullName(t *testing.T) {
	m := &FuncDecl{Class: "C", Name: "m"}
	f := &FuncDecl{Name: "f"}
	if m.FullName() != "C::m" || f.FullName() != "f" {
		t.Error("FullName wrong")
	}
}

func TestExprStringParenthesization(t *testing.T) {
	// (a + b) * c must not print as a + b * c.
	e := &BinExpr{Op: token.Star,
		L: &BinExpr{Op: token.Plus, L: &Ident{Name: "a"}, R: &Ident{Name: "b"}},
		R: &Ident{Name: "c"},
	}
	if got := ExprString(e); got != "((a + b) * c)" {
		t.Errorf("ExprString = %q", got)
	}
}

func TestProgramPrintDeclarations(t *testing.T) {
	p := &Program{
		Params:  []*ParamDecl{{Name: "n", Default: 8}},
		Externs: []*ExternDecl{{Name: "sqrt", Params: []*ParamSpec{{Name: "x", Type: &PrimType{Name: "float"}}}, Result: &PrimType{Name: "float"}, Cost: 80}},
		Classes: []*ClassDecl{{Name: "C", Fields: []*FieldDecl{{Name: "v", Type: &PrimType{Name: "float"}}}}},
		Funcs:   []*FuncDecl{{Name: "main", Body: &Block{}}},
	}
	text := Print(p)
	for _, want := range []string{
		"param n: int = 8;",
		"extern sqrt(x: float): float cost 80;",
		"class C {",
		"v: float;",
		"func main()",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Print missing %q:\n%s", want, text)
		}
	}
}

// TestInspectAndOperandsReachEveryExpression: walking exampleFunc with the
// two must see each statement once, in source order, and every expression
// the printer shows; returning false must skip exactly the nested
// statements.
func TestInspectAndOperandsReachEveryExpression(t *testing.T) {
	f := exampleFunc()
	var kinds, exprs []string
	Inspect(f.Body, func(s Stmt) bool {
		kinds = append(kinds, strings.TrimPrefix(fmt.Sprintf("%T", s), "*ast."))
		for _, e := range Operands(s) {
			exprs = append(exprs, ExprString(e))
		}
		return true
	})
	wantKinds := "Block LetStmt IfStmt Block AssignStmt Block PrintStmt WhileStmt Block " +
		"ForStmt Block ExprStmt SyncBlock Block AssignStmt ReturnStmt"
	if got := strings.Join(kinds, " "); got != wantKinds {
		t.Errorf("visit order:\n got %s\nwant %s", got, wantKinds)
	}
	wantExprs := "(x * 2.0)|(t < 10.0)|this.v|t|t|false|0|3|this.helper(a[i])|this|this.v|-t|this.v"
	if got := strings.Join(exprs, "|"); got != wantExprs {
		t.Errorf("operands:\n got %s\nwant %s", got, wantExprs)
	}

	var shallow []string
	Inspect(f.Body, func(s Stmt) bool {
		_, top := s.(*Block)
		shallow = append(shallow, strings.TrimPrefix(fmt.Sprintf("%T", s), "*ast."))
		return top && len(shallow) == 1
	})
	if got := strings.Join(shallow, " "); got != "Block LetStmt IfStmt WhileStmt ForStmt SyncBlock ReturnStmt" {
		t.Errorf("false did not skip nested statements: %s", got)
	}

	// Absent optional operands are omitted, not nil.
	for _, s := range []Stmt{&LetStmt{Name: "x"}, &ReturnStmt{}, &Block{}} {
		if ops := Operands(s); len(ops) != 0 {
			t.Errorf("Operands(%T) = %v, want none", s, ops)
		}
	}
}

// TestInspectExprVisitsEveryOperandInPreOrder: one expression of every kind,
// with every operand position filled, is visited parent first and operands
// left to right; returning false skips exactly the operands, and absent
// operands visit nothing.
func TestInspectExprVisitsEveryOperandInPreOrder(t *testing.T) {
	e := &BinExpr{Op: token.Plus,
		L: &CallExpr{Recv: &FieldExpr{X: &ThisExpr{}, Name: "o"}, Name: "m", Args: []Expr{
			&IndexExpr{X: &Ident{Name: "a"}, Index: &IntLit{Val: 1}},
			&NewExpr{Type: &PrimType{Name: "float"}, Count: &UnExpr{Op: token.Minus, X: &FloatLit{Val: 2}}},
			&BoolLit{Val: true},
		}},
		R: &Ident{Name: "b"},
	}
	visit := func(stop string) string {
		var kinds []string
		InspectExpr(e, func(e Expr) bool {
			kind := strings.TrimPrefix(fmt.Sprintf("%T", e), "*ast.")
			kinds = append(kinds, kind)
			return kind != stop
		})
		return strings.Join(kinds, " ")
	}
	want := "BinExpr CallExpr FieldExpr ThisExpr IndexExpr Ident IntLit NewExpr UnExpr FloatLit BoolLit Ident"
	if got := visit(""); got != want {
		t.Errorf("visit order:\n got %s\nwant %s", got, want)
	}
	if got := visit("CallExpr"); got != "BinExpr CallExpr Ident" {
		t.Errorf("false did not skip the call's operands: %s", got)
	}

	count := func(e Expr) int {
		n := 0
		InspectExpr(e, func(Expr) bool { n++; return true })
		return n
	}
	if n := count(nil); n != 0 {
		t.Errorf("InspectExpr(nil) visited %d expressions", n)
	}
	for _, e := range []Expr{&CallExpr{Name: "g"}, &NewExpr{Type: &ClassType{Name: "C"}}} {
		if n := count(e); n != 1 {
			t.Errorf("InspectExpr(%s) visited %d expressions, want 1", ExprString(e), n)
		}
	}
}

// TestVars: the variables an expression mentions, not looking inside calls
// or allocations.
func TestVars(t *testing.T) {
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{&FieldExpr{X: &IndexExpr{X: &Ident{Name: "a"},
			Index: &CallExpr{Name: "f", Args: []Expr{&Ident{Name: "i"}}}}, Name: "g"}, "a"},
		{&NewExpr{Type: &PrimType{Name: "int"}, Count: &Ident{Name: "k"}}, ""},
		{&IndexExpr{X: &FieldExpr{X: &ThisExpr{}, Name: "f"}, Index: &Ident{Name: "j"}}, "j this"},
	} {
		var names []string
		for name := range Vars(tc.e) {
			names = append(names, name)
		}
		sort.Strings(names)
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("Vars(%s) = {%s}, want {%s}", ExprString(tc.e), got, tc.want)
		}
	}
}
