// Package sema performs name resolution and type checking for OBL
// programs, producing the symbol information the later compiler phases
// (commutativity analysis, synchronization optimization, lowering) consume.
//
// Because the synchronization optimizer produces per-policy clones of the
// program, sema is designed to be re-run cheaply on each clone; Info maps
// are keyed by AST node pointers of the analyzed program.
package sema

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/obl/ast"
	"repro/internal/obl/token"
)

// Type is a semantic type.
type Type interface {
	String() string
	Equal(Type) bool
}

// Prim is int, float or bool.
type Prim int

// The primitive types.
const (
	Int Prim = iota
	Float
	Bool
)

func (p Prim) String() string {
	switch p {
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Prim(%d)", int(p))
	}
}

// Equal reports type identity.
func (p Prim) Equal(o Type) bool {
	q, ok := o.(Prim)
	return ok && p == q
}

// Class is an object type.
type Class struct{ Info *ClassInfo }

func (c Class) String() string { return c.Info.Name }

// Equal reports type identity.
func (c Class) Equal(o Type) bool {
	d, ok := o.(Class)
	return ok && c.Info == d.Info
}

// Array is an array type.
type Array struct{ Elem Type }

func (a Array) String() string { return a.Elem.String() + "[]" }

// Equal reports type identity.
func (a Array) Equal(o Type) bool {
	b, ok := o.(Array)
	return ok && a.Elem.Equal(b.Elem)
}

// Void is the type of functions without a result.
type Void struct{}

func (Void) String() string { return "void" }

// Equal reports type identity.
func (Void) Equal(o Type) bool {
	_, ok := o.(Void)
	return ok
}

// FieldInfo describes one class field.
type FieldInfo struct {
	Name  string
	Type  Type
	Index int
}

// ClassInfo describes a class.
type ClassInfo struct {
	Name    string
	Decl    *ast.ClassDecl
	Fields  []*FieldInfo
	FieldBy map[string]*FieldInfo
	Methods map[string]*FuncInfo
}

// FuncInfo describes a function or method.
type FuncInfo struct {
	Decl   *ast.FuncDecl
	Class  *ClassInfo // nil for top-level functions
	Params []Type
	Result Type // Void{} if none
}

// FullName returns Class::name for methods, name otherwise.
func (f *FuncInfo) FullName() string { return f.Decl.FullName() }

// ExternInfo describes an external function.
type ExternInfo struct {
	Decl   *ast.ExternDecl
	Params []Type
	Result Type
	Cost   int64
}

// RefKind classifies what an identifier expression refers to.
type RefKind int

// Identifier reference kinds.
const (
	RefLocal RefKind = iota // local variable or formal parameter
	RefParam                // program parameter (param declaration)
)

// Builtin names recognized by the checker. tofloat and toint convert
// between numerics; len returns an array's length.
var builtins = map[string]bool{"tofloat": true, "toint": true, "len": true}

// Info is the result of checking a program.
type Info struct {
	Program *ast.Program
	Classes map[string]*ClassInfo
	Funcs   map[string]*FuncInfo // top-level functions by name
	Methods map[string]*FuncInfo // methods by "Class::name"
	Externs map[string]*ExternInfo
	Params  map[string]int64 // program parameters and defaults

	// ExprType records the type of every expression.
	ExprType map[ast.Expr]Type
	// RefKinds classifies every identifier expression.
	RefKinds map[*ast.Ident]RefKind
	// CallTarget records the resolved callee of every call that targets a
	// function or method ("Class::name" or "name"); extern and builtin
	// calls are recorded in ExternCalls/BuiltinCalls instead.
	CallTarget map[*ast.CallExpr]*FuncInfo
	// ExternCalls records calls to externs.
	ExternCalls map[*ast.CallExpr]*ExternInfo
	// BuiltinCalls records calls to builtins by name.
	BuiltinCalls map[*ast.CallExpr]string
}

// FuncByFullName returns the FuncInfo for "name" or "Class::name".
func (in *Info) FuncByFullName(full string) *FuncInfo {
	if f, ok := in.Funcs[full]; ok {
		return f
	}
	return in.Methods[full]
}

// AllFuncs returns every function and method, in deterministic order:
// top-level functions in declaration order, then methods in class and
// declaration order.
func (in *Info) AllFuncs() []*FuncInfo {
	var out []*FuncInfo
	for _, f := range in.Program.Funcs {
		out = append(out, in.Funcs[f.Name])
	}
	for _, c := range in.Program.Classes {
		for _, m := range c.Methods {
			out = append(out, in.Methods[m.FullName()])
		}
	}
	return out
}

type checker struct {
	info *Info
	errs []string
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// Check resolves and type-checks prog.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{info: &Info{
		Program:      prog,
		Classes:      map[string]*ClassInfo{},
		Funcs:        map[string]*FuncInfo{},
		Methods:      map[string]*FuncInfo{},
		Externs:      map[string]*ExternInfo{},
		Params:       map[string]int64{},
		ExprType:     map[ast.Expr]Type{},
		RefKinds:     map[*ast.Ident]RefKind{},
		CallTarget:   map[*ast.CallExpr]*FuncInfo{},
		ExternCalls:  map[*ast.CallExpr]*ExternInfo{},
		BuiltinCalls: map[*ast.CallExpr]string{},
	}}
	c.collect(prog)
	c.checkBodies(prog)
	if len(c.errs) > 0 {
		return nil, errors.New(strings.Join(c.errs, "\n"))
	}
	return c.info, nil
}

// collect builds the global symbol tables.
func (c *checker) collect(prog *ast.Program) {
	for _, d := range prog.Classes {
		if _, dup := c.info.Classes[d.Name]; dup {
			c.errorf(d.P, "duplicate class %q", d.Name)
			continue
		}
		c.info.Classes[d.Name] = &ClassInfo{
			Name: d.Name, Decl: d,
			FieldBy: map[string]*FieldInfo{},
			Methods: map[string]*FuncInfo{},
		}
	}
	for _, d := range prog.Params {
		if _, dup := c.info.Params[d.Name]; dup {
			c.errorf(d.P, "duplicate param %q", d.Name)
		}
		c.info.Params[d.Name] = d.Default
	}
	for _, d := range prog.Externs {
		if _, dup := c.info.Externs[d.Name]; dup {
			c.errorf(d.P, "duplicate extern %q", d.Name)
			continue
		}
		if builtins[d.Name] {
			c.errorf(d.P, "extern %q shadows a builtin", d.Name)
			continue
		}
		e := &ExternInfo{Decl: d, Cost: d.Cost, Result: Void{}}
		for _, p := range d.Params {
			e.Params = append(e.Params, c.resolveType(p.Type))
		}
		if d.Result != nil {
			e.Result = c.resolveType(d.Result)
		}
		c.info.Externs[d.Name] = e
	}
	// Class fields and method signatures.
	for _, d := range prog.Classes {
		ci := c.info.Classes[d.Name]
		if ci == nil || ci.Decl != d {
			continue
		}
		for _, f := range d.Fields {
			if _, dup := ci.FieldBy[f.Name]; dup {
				c.errorf(f.P, "duplicate field %q in class %q", f.Name, d.Name)
				continue
			}
			fi := &FieldInfo{Name: f.Name, Type: c.resolveType(f.Type), Index: len(ci.Fields)}
			ci.Fields = append(ci.Fields, fi)
			ci.FieldBy[f.Name] = fi
		}
		for _, m := range d.Methods {
			if _, dup := ci.Methods[m.Name]; dup {
				c.errorf(m.P, "duplicate method %q in class %q", m.Name, d.Name)
				continue
			}
			fi := c.funcInfo(m, ci)
			ci.Methods[m.Name] = fi
			c.info.Methods[m.FullName()] = fi
		}
	}
	for _, f := range prog.Funcs {
		if _, dup := c.info.Funcs[f.Name]; dup {
			c.errorf(f.P, "duplicate function %q", f.Name)
			continue
		}
		if _, isExt := c.info.Externs[f.Name]; isExt || builtins[f.Name] {
			c.errorf(f.P, "function %q collides with extern or builtin", f.Name)
			continue
		}
		c.info.Funcs[f.Name] = c.funcInfo(f, nil)
	}
}

func (c *checker) funcInfo(d *ast.FuncDecl, class *ClassInfo) *FuncInfo {
	fi := &FuncInfo{Decl: d, Class: class, Result: Type(Void{})}
	for _, p := range d.Params {
		fi.Params = append(fi.Params, c.resolveType(p.Type))
	}
	if d.Result != nil {
		fi.Result = c.resolveType(d.Result)
	}
	return fi
}

func (c *checker) resolveType(t ast.Type) Type {
	switch t := t.(type) {
	case *ast.PrimType:
		switch t.Name {
		case "int":
			return Int
		case "float":
			return Float
		case "bool":
			return Bool
		}
		c.errorf(t.P, "unknown primitive type %q", t.Name)
		return Int
	case *ast.ClassType:
		if ci, ok := c.info.Classes[t.Name]; ok {
			return Class{Info: ci}
		}
		c.errorf(t.P, "unknown class %q", t.Name)
		return Int
	case *ast.ArrayType:
		return Array{Elem: c.resolveType(t.Elem)}
	default:
		panic("sema: unknown ast type")
	}
}

// scope is a lexical scope of local variables.
type scope struct {
	parent *scope
	vars   map[string]Type
}

func (s *scope) lookup(name string) (Type, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if t, ok := sc.vars[name]; ok {
			return t, true
		}
	}
	return nil, false
}

func (s *scope) declare(name string, t Type) bool {
	if _, dup := s.vars[name]; dup {
		return false
	}
	s.vars[name] = t
	return true
}

func (c *checker) checkBodies(prog *ast.Program) {
	for _, d := range prog.Classes {
		ci := c.info.Classes[d.Name]
		for _, m := range d.Methods {
			if fi := ci.Methods[m.Name]; fi != nil && fi.Decl == m {
				c.checkFunc(fi)
			}
		}
	}
	for _, f := range prog.Funcs {
		if fi := c.info.Funcs[f.Name]; fi != nil && fi.Decl == f {
			c.checkFunc(fi)
		}
	}
}

func (c *checker) checkFunc(fi *FuncInfo) {
	sc := &scope{vars: map[string]Type{}}
	for i, p := range fi.Decl.Params {
		if !sc.declare(p.Name, fi.Params[i]) {
			c.errorf(p.P, "duplicate parameter %q", p.Name)
		}
	}
	c.checkBlock(fi, sc, fi.Decl.Body)
	if !fi.Result.Equal(Void{}) && !blockTerminates(fi.Decl.Body) {
		c.errorf(fi.Decl.P, "function %q may finish without returning a %s",
			fi.FullName(), fi.Result)
	}
}

// blockTerminates reports whether execution of a block always ends in a
// return statement. Loops are conservatively assumed to be skippable.
func blockTerminates(b *ast.Block) bool {
	for _, s := range b.Stmts {
		if stmtTerminates(s) {
			return true
		}
	}
	return false
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.Block:
		return blockTerminates(s)
	case *ast.IfStmt:
		return s.Else != nil && blockTerminates(s.Then) && blockTerminates(s.Else)
	case *ast.SyncBlock:
		return blockTerminates(s.Body)
	default:
		return false
	}
}

func (c *checker) checkBlock(fi *FuncInfo, parent *scope, b *ast.Block) {
	sc := &scope{parent: parent, vars: map[string]Type{}}
	for _, s := range b.Stmts {
		c.checkStmt(fi, sc, s)
	}
}

func (c *checker) checkStmt(fi *FuncInfo, sc *scope, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		c.checkBlock(fi, sc, s)
	case *ast.LetStmt:
		t := c.resolveType(s.Type)
		if s.Init != nil {
			it := c.checkExpr(fi, sc, s.Init)
			if it != nil && !it.Equal(t) {
				c.errorf(s.P, "cannot initialize %s %q with %s", t, s.Name, it)
			}
		}
		if !sc.declare(s.Name, t) {
			c.errorf(s.P, "duplicate local %q", s.Name)
		}
	case *ast.AssignStmt:
		lt := c.checkLValue(fi, sc, s.LHS)
		rt := c.checkExpr(fi, sc, s.RHS)
		if lt != nil && rt != nil && !rt.Equal(lt) {
			c.errorf(s.P, "cannot assign %s to %s", rt, lt)
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			c.checkExpr(fi, sc, call)
		} else {
			c.errorf(s.P, "expression statement must be a call")
		}
	case *ast.IfStmt:
		c.wantType(fi, sc, s.Cond, Bool, "if condition")
		c.checkBlock(fi, sc, s.Then)
		if s.Else != nil {
			c.checkBlock(fi, sc, s.Else)
		}
	case *ast.WhileStmt:
		c.wantType(fi, sc, s.Cond, Bool, "while condition")
		c.checkBlock(fi, sc, s.Body)
	case *ast.ForStmt:
		c.wantType(fi, sc, s.Lo, Int, "loop lower bound")
		c.wantType(fi, sc, s.Hi, Int, "loop upper bound")
		inner := &scope{parent: sc, vars: map[string]Type{s.Var: Int}}
		c.checkBlock(fi, inner, s.Body)
	case *ast.ReturnStmt:
		want := fi.Result
		if s.X == nil {
			if !want.Equal(Void{}) {
				c.errorf(s.P, "missing return value (want %s)", want)
			}
			return
		}
		got := c.checkExpr(fi, sc, s.X)
		if want.Equal(Void{}) {
			c.errorf(s.P, "unexpected return value in void function")
		} else if got != nil && !got.Equal(want) {
			c.errorf(s.P, "return type %s, want %s", got, want)
		}
	case *ast.PrintStmt:
		t := c.checkExpr(fi, sc, s.X)
		if _, isPrim := t.(Prim); t != nil && !isPrim {
			c.errorf(s.P, "print wants a primitive value, got %s", t)
		}
	case *ast.SyncBlock:
		t := c.checkExpr(fi, sc, s.Lock)
		if _, ok := t.(Class); t != nil && !ok {
			c.errorf(s.P, "sync lock must be an object, got %s", t)
		}
		c.checkBlock(fi, sc, s.Body)
	default:
		panic(fmt.Sprintf("sema: unknown statement %T", s))
	}
}

func (c *checker) wantType(fi *FuncInfo, sc *scope, e ast.Expr, want Type, what string) {
	got := c.checkExpr(fi, sc, e)
	if got != nil && !got.Equal(want) {
		c.errorf(e.Pos(), "%s must be %s, got %s", what, want, got)
	}
}

func (c *checker) checkLValue(fi *FuncInfo, sc *scope, e ast.Expr) Type {
	switch e := e.(type) {
	case *ast.Ident:
		if t, ok := sc.lookup(e.Name); ok {
			c.info.ExprType[e] = t
			c.info.RefKinds[e] = RefLocal
			return t
		}
		if _, ok := c.info.Params[e.Name]; ok {
			c.errorf(e.P, "cannot assign to program parameter %q", e.Name)
			return nil
		}
		c.errorf(e.P, "undefined variable %q", e.Name)
		return nil
	case *ast.FieldExpr, *ast.IndexExpr:
		return c.checkExpr(fi, sc, e)
	default:
		c.errorf(e.Pos(), "invalid assignment target")
		return nil
	}
}

func (c *checker) checkExpr(fi *FuncInfo, sc *scope, e ast.Expr) Type {
	t := c.exprType(fi, sc, e)
	if t != nil {
		c.info.ExprType[e] = t
	}
	return t
}

func (c *checker) exprType(fi *FuncInfo, sc *scope, e ast.Expr) Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return Int
	case *ast.FloatLit:
		return Float
	case *ast.BoolLit:
		return Bool
	case *ast.Ident:
		if t, ok := sc.lookup(e.Name); ok {
			c.info.RefKinds[e] = RefLocal
			return t
		}
		if _, ok := c.info.Params[e.Name]; ok {
			c.info.RefKinds[e] = RefParam
			return Int
		}
		c.errorf(e.P, "undefined variable %q", e.Name)
		return nil
	case *ast.ThisExpr:
		if fi.Class == nil {
			c.errorf(e.P, "this outside a method")
			return nil
		}
		return Class{Info: fi.Class}
	case *ast.FieldExpr:
		xt := c.checkExpr(fi, sc, e.X)
		cl, ok := xt.(Class)
		if !ok {
			if xt != nil {
				c.errorf(e.P, "field access on non-object type %s", xt)
			}
			return nil
		}
		f, ok := cl.Info.FieldBy[e.Name]
		if !ok {
			c.errorf(e.P, "class %q has no field %q", cl.Info.Name, e.Name)
			return nil
		}
		return f.Type
	case *ast.IndexExpr:
		xt := c.checkExpr(fi, sc, e.X)
		c.wantType(fi, sc, e.Index, Int, "array index")
		arr, ok := xt.(Array)
		if !ok {
			if xt != nil {
				c.errorf(e.P, "indexing non-array type %s", xt)
			}
			return nil
		}
		return arr.Elem
	case *ast.CallExpr:
		return c.checkCall(fi, sc, e)
	case *ast.NewExpr:
		t := c.resolveType(e.Type)
		if e.Count != nil {
			c.wantType(fi, sc, e.Count, Int, "array length")
			return Array{Elem: t}
		}
		if _, ok := t.(Class); !ok {
			c.errorf(e.P, "new object of non-class type %s", t)
			return nil
		}
		return t
	case *ast.BinExpr:
		return c.checkBin(fi, sc, e)
	case *ast.UnExpr:
		xt := c.checkExpr(fi, sc, e.X)
		if xt == nil {
			return nil
		}
		switch e.Op {
		case token.Minus:
			if xt.Equal(Int) || xt.Equal(Float) {
				return xt
			}
			c.errorf(e.P, "unary minus on %s", xt)
		case token.Not:
			if xt.Equal(Bool) {
				return Bool
			}
			c.errorf(e.P, "logical not on %s", xt)
		}
		return nil
	default:
		panic(fmt.Sprintf("sema: unknown expression %T", e))
	}
}

func (c *checker) checkBin(fi *FuncInfo, sc *scope, e *ast.BinExpr) Type {
	lt := c.checkExpr(fi, sc, e.L)
	rt := c.checkExpr(fi, sc, e.R)
	if lt == nil || rt == nil {
		return nil
	}
	switch e.Op {
	case token.Plus, token.Minus, token.Star, token.Slash:
		if lt.Equal(rt) && (lt.Equal(Int) || lt.Equal(Float)) {
			return lt
		}
		c.errorf(e.P, "arithmetic on %s and %s", lt, rt)
	case token.Percent:
		if lt.Equal(Int) && rt.Equal(Int) {
			return Int
		}
		c.errorf(e.P, "%% needs int operands, got %s and %s", lt, rt)
	case token.Lt, token.LtEq, token.Gt, token.GtEq:
		if lt.Equal(rt) && (lt.Equal(Int) || lt.Equal(Float)) {
			return Bool
		}
		c.errorf(e.P, "comparison of %s and %s", lt, rt)
	case token.Eq, token.NotEq:
		if lt.Equal(rt) {
			return Bool
		}
		c.errorf(e.P, "equality of %s and %s", lt, rt)
	case token.AndAnd, token.OrOr:
		if lt.Equal(Bool) && rt.Equal(Bool) {
			return Bool
		}
		c.errorf(e.P, "logical operation on %s and %s", lt, rt)
	}
	return nil
}

func (c *checker) checkCall(fi *FuncInfo, sc *scope, e *ast.CallExpr) Type {
	var params []Type
	var result Type
	switch {
	case e.Recv != nil:
		rt := c.checkExpr(fi, sc, e.Recv)
		cl, ok := rt.(Class)
		if !ok {
			if rt != nil {
				c.errorf(e.P, "method call on non-object type %s", rt)
			}
			return nil
		}
		m, ok := cl.Info.Methods[e.Name]
		if !ok {
			c.errorf(e.P, "class %q has no method %q", cl.Info.Name, e.Name)
			return nil
		}
		c.info.CallTarget[e] = m
		params, result = m.Params, m.Result
	case builtins[e.Name]:
		c.info.BuiltinCalls[e] = e.Name
		return c.checkBuiltin(fi, sc, e)
	default:
		if f, ok := c.info.Funcs[e.Name]; ok {
			c.info.CallTarget[e] = f
			params, result = f.Params, f.Result
		} else if ex, ok := c.info.Externs[e.Name]; ok {
			c.info.ExternCalls[e] = ex
			params, result = ex.Params, ex.Result
		} else {
			c.errorf(e.P, "undefined function %q", e.Name)
			return nil
		}
	}
	if len(e.Args) != len(params) {
		c.errorf(e.P, "call to %q: %d arguments, want %d", e.Name, len(e.Args), len(params))
		return result
	}
	for i, a := range e.Args {
		at := c.checkExpr(fi, sc, a)
		if at != nil && !at.Equal(params[i]) {
			c.errorf(a.Pos(), "argument %d of %q: got %s, want %s", i+1, e.Name, at, params[i])
		}
	}
	if result.Equal(Void{}) {
		return Void{}
	}
	return result
}

func (c *checker) checkBuiltin(fi *FuncInfo, sc *scope, e *ast.CallExpr) Type {
	arg := func(want Type) Type {
		if len(e.Args) != 1 {
			c.errorf(e.P, "%s takes 1 argument", e.Name)
			return nil
		}
		at := c.checkExpr(fi, sc, e.Args[0])
		if want != nil && at != nil && !at.Equal(want) {
			c.errorf(e.P, "%s argument must be %s, got %s", e.Name, want, at)
		}
		return at
	}
	switch e.Name {
	case "tofloat":
		arg(Int)
		return Float
	case "toint":
		arg(Float)
		return Int
	case "len":
		at := arg(nil)
		if at != nil {
			if _, ok := at.(Array); !ok {
				c.errorf(e.P, "len argument must be an array, got %s", at)
			}
		}
		return Int
	default:
		panic("sema: unknown builtin " + e.Name)
	}
}
