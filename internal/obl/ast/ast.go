// Package ast defines the abstract syntax tree of OBL and utilities over
// it (cloning for per-policy program variants, a printer, and the
// read-only walkers: Inspect over statements, Operands for the expressions
// a statement evaluates, InspectExpr over expressions, and Vars for the
// variables an expression mentions).
//
// The tree also carries the results of the compiler's analyses and
// transformations: sema attaches resolved types, the commutativity analysis
// marks parallel loops, and the synchronization optimizer inserts
// SyncBlock nodes around object updates (the acquire/release constructs of
// the paper, §2/§3).
package ast

import "repro/internal/obl/token"

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// Type is a syntactic type.
type Type interface {
	Node
	typeNode()
	// String renders the type as source text.
	String() string
}

// PrimType is int, float or bool.
type PrimType struct {
	P    token.Pos
	Name string // "int", "float", "bool"
}

// ClassType names a class.
type ClassType struct {
	P    token.Pos
	Name string
}

// ArrayType is an array of Elem.
type ArrayType struct {
	P    token.Pos
	Elem Type
}

func (t *PrimType) Pos() token.Pos  { return t.P }
func (t *ClassType) Pos() token.Pos { return t.P }
func (t *ArrayType) Pos() token.Pos { return t.P }
func (t *PrimType) typeNode()       {}
func (t *ClassType) typeNode()      {}
func (t *ArrayType) typeNode()      {}

func (t *PrimType) String() string  { return t.Name }
func (t *ClassType) String() string { return t.Name }
func (t *ArrayType) String() string { return t.Elem.String() + "[]" }

// Program is a whole source file.
type Program struct {
	Classes []*ClassDecl
	Funcs   []*FuncDecl
	Externs []*ExternDecl
	Params  []*ParamDecl
}

// ClassDecl declares a class with fields and methods. As in the paper's
// model, every object implicitly carries a mutual exclusion lock.
type ClassDecl struct {
	P       token.Pos
	Name    string
	Fields  []*FieldDecl
	Methods []*FuncDecl
}

func (d *ClassDecl) Pos() token.Pos { return d.P }

// FieldDecl declares one instance variable.
type FieldDecl struct {
	P    token.Pos
	Name string
	Type Type
}

func (d *FieldDecl) Pos() token.Pos { return d.P }

// FuncDecl declares a top-level function or a method (Class != "").
type FuncDecl struct {
	P      token.Pos
	Class  string // empty for top-level functions
	Name   string
	Params []*ParamSpec
	Result Type // nil for none
	Body   *Block
}

func (d *FuncDecl) Pos() token.Pos { return d.P }

// FullName returns Class::Name for methods and Name for functions.
func (d *FuncDecl) FullName() string {
	if d.Class == "" {
		return d.Name
	}
	return d.Class + "::" + d.Name
}

// ParamSpec is one formal parameter.
type ParamSpec struct {
	P    token.Pos
	Name string
	Type Type
}

func (p *ParamSpec) Pos() token.Pos { return p.P }

// ExternDecl declares an external pure function with a virtual execution
// cost in nanoseconds. Externs model the expensive numeric kernels of the
// applications (the interact() of the paper's Figure 1).
type ExternDecl struct {
	P      token.Pos
	Name   string
	Params []*ParamSpec
	Result Type // nil for none
	Cost   int64
}

func (d *ExternDecl) Pos() token.Pos { return d.P }

// ParamDecl declares a named integer program parameter with a default
// value, overridable at run time (input sizes, work multipliers).
type ParamDecl struct {
	P       token.Pos
	Name    string
	Default int64
}

func (d *ParamDecl) Pos() token.Pos { return d.P }

// Stmt is a statement.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a braced statement list.
type Block struct {
	P     token.Pos
	Stmts []Stmt
}

// LetStmt declares and optionally initializes a local variable.
type LetStmt struct {
	P    token.Pos
	Name string
	Type Type
	Init Expr // may be nil
}

// AssignStmt assigns to a local, a field, or an array element.
type AssignStmt struct {
	P   token.Pos
	LHS Expr // Ident, FieldExpr or IndexExpr
	RHS Expr
}

// ExprStmt evaluates an expression for its effect (a call).
type ExprStmt struct {
	P token.Pos
	X Expr
}

// IfStmt is a conditional.
type IfStmt struct {
	P    token.Pos
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

// WhileStmt loops while the condition holds.
type WhileStmt struct {
	P    token.Pos
	Cond Expr
	Body *Block
}

// ForStmt is "for i in lo..hi { body }", iterating i over [lo, hi).
// The commutativity analysis sets Parallel on loops whose operations all
// commute; those loops become parallel sections in the generated code.
type ForStmt struct {
	P        token.Pos
	Var      string
	Lo, Hi   Expr
	Body     *Block
	Parallel bool
	// Section is the parallel section name assigned by the compiler
	// (derived from the enclosing function, e.g. "FORCES").
	Section string
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	P token.Pos
	X Expr // may be nil
}

// PrintStmt prints a value (for examples and debugging).
type PrintStmt struct {
	P token.Pos
	X Expr
}

// SyncBlock is a critical region on the lock of the object Lock evaluates
// to. It never appears in source: the compiler inserts SyncBlocks around
// object updates (default placement), and the synchronization optimization
// policies coalesce and lift them (§3).
//
// In the flag-dispatch compilation mode (§4.2's single-version
// alternative), Site is a positive site identifier and the region is
// conditional: the generated code acquires the lock only when the current
// policy's flag for the site is set. Site zero means unconditional.
type SyncBlock struct {
	P    token.Pos
	Lock Expr
	Body *Block
	Site int
}

func (s *Block) Pos() token.Pos      { return s.P }
func (s *LetStmt) Pos() token.Pos    { return s.P }
func (s *AssignStmt) Pos() token.Pos { return s.P }
func (s *ExprStmt) Pos() token.Pos   { return s.P }
func (s *IfStmt) Pos() token.Pos     { return s.P }
func (s *WhileStmt) Pos() token.Pos  { return s.P }
func (s *ForStmt) Pos() token.Pos    { return s.P }
func (s *ReturnStmt) Pos() token.Pos { return s.P }
func (s *PrintStmt) Pos() token.Pos  { return s.P }
func (s *SyncBlock) Pos() token.Pos  { return s.P }

func (*Block) stmtNode()      {}
func (*LetStmt) stmtNode()    {}
func (*AssignStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode() {}
func (*PrintStmt) stmtNode()  {}
func (*SyncBlock) stmtNode()  {}

// Expr is an expression.
type Expr interface {
	Node
	exprNode()
}

// Ident names a local variable or parameter; it may also name a program
// parameter (param declaration).
type Ident struct {
	P    token.Pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	P   token.Pos
	Val int64
}

// FloatLit is a float literal.
type FloatLit struct {
	P   token.Pos
	Val float64
}

// BoolLit is true or false.
type BoolLit struct {
	P   token.Pos
	Val bool
}

// ThisExpr is the method receiver.
type ThisExpr struct {
	P token.Pos
}

// FieldExpr is X.Name.
type FieldExpr struct {
	P    token.Pos
	X    Expr
	Name string
}

// IndexExpr is X[Index].
type IndexExpr struct {
	P     token.Pos
	X     Expr
	Index Expr
}

// CallExpr is a call: a top-level function, extern or builtin when Recv is
// nil, a method call otherwise.
type CallExpr struct {
	P    token.Pos
	Recv Expr // nil for function calls
	Name string
	Args []Expr
}

// NewExpr allocates an object (Count nil) or an array of Count elements.
// Array elements of class type start nil; use NewExpr per element.
type NewExpr struct {
	P     token.Pos
	Type  Type
	Count Expr // nil for single object
}

// BinExpr is a binary operation.
type BinExpr struct {
	P    token.Pos
	Op   token.Kind // Plus..Percent, Eq..GtEq, AndAnd, OrOr
	L, R Expr
}

// UnExpr is unary minus or logical not.
type UnExpr struct {
	P  token.Pos
	Op token.Kind // Minus or Not
	X  Expr
}

func (e *Ident) Pos() token.Pos     { return e.P }
func (e *IntLit) Pos() token.Pos    { return e.P }
func (e *FloatLit) Pos() token.Pos  { return e.P }
func (e *BoolLit) Pos() token.Pos   { return e.P }
func (e *ThisExpr) Pos() token.Pos  { return e.P }
func (e *FieldExpr) Pos() token.Pos { return e.P }
func (e *IndexExpr) Pos() token.Pos { return e.P }
func (e *CallExpr) Pos() token.Pos  { return e.P }
func (e *NewExpr) Pos() token.Pos   { return e.P }
func (e *BinExpr) Pos() token.Pos   { return e.P }
func (e *UnExpr) Pos() token.Pos    { return e.P }

func (*Ident) exprNode()     {}
func (*IntLit) exprNode()    {}
func (*FloatLit) exprNode()  {}
func (*BoolLit) exprNode()   {}
func (*ThisExpr) exprNode()  {}
func (*FieldExpr) exprNode() {}
func (*IndexExpr) exprNode() {}
func (*CallExpr) exprNode()  {}
func (*NewExpr) exprNode()   {}
func (*BinExpr) exprNode()   {}
func (*UnExpr) exprNode()    {}
