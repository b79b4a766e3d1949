package ast

// Inspect traverses the statement tree rooted at s in pre-order, calling f
// on every statement; when f returns false the statements nested in that
// one are skipped. It is for walkers that only read the tree (or set
// fields of the nodes they visit): code that replaces statements keeps its
// own recursion over the statement lists it edits.
func Inspect(s Stmt, f func(Stmt) bool) {
	if !f(s) {
		return
	}
	switch s := s.(type) {
	case *Block:
		for _, st := range s.Stmts {
			Inspect(st, f)
		}
	case *IfStmt:
		Inspect(s.Then, f)
		if s.Else != nil {
			Inspect(s.Else, f)
		}
	case *WhileStmt:
		Inspect(s.Body, f)
	case *ForStmt:
		Inspect(s.Body, f)
	case *SyncBlock:
		Inspect(s.Body, f)
	}
}

// InspectExpr traverses the expression tree rooted at e in pre-order,
// calling f on every expression; when f returns false the operands of that
// one are skipped. A nil e visits nothing. Like Inspect, it is for walkers
// that only read the tree.
func InspectExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch e := e.(type) {
	case *FieldExpr:
		InspectExpr(e.X, f)
	case *IndexExpr:
		InspectExpr(e.X, f)
		InspectExpr(e.Index, f)
	case *CallExpr:
		InspectExpr(e.Recv, f)
		for _, a := range e.Args {
			InspectExpr(a, f)
		}
	case *NewExpr:
		InspectExpr(e.Count, f)
	case *BinExpr:
		InspectExpr(e.L, f)
		InspectExpr(e.R, f)
	case *UnExpr:
		InspectExpr(e.X, f)
	}
}

// Vars returns the variables an expression mentions — its identifiers, and
// "this" for the receiver — without looking inside calls or
// new-expressions: a[f(i)] mentions a, not i.
func Vars(e Expr) map[string]bool {
	out := map[string]bool{}
	InspectExpr(e, func(e Expr) bool {
		switch e := e.(type) {
		case *Ident:
			out[e.Name] = true
		case *ThisExpr:
			out["this"] = true
		case *CallExpr, *NewExpr:
			return false
		}
		return true
	})
	return out
}

// Operands returns the expressions s itself evaluates, in evaluation
// order: not those of the statements nested in it, and not an optional
// operand that is absent. Together with Inspect and InspectExpr it reaches
// every expression of a statement tree, so a check written over the three
// cannot forget an operand position.
func Operands(s Stmt) []Expr {
	switch s := s.(type) {
	case *LetStmt:
		if s.Init != nil {
			return []Expr{s.Init}
		}
	case *AssignStmt:
		return []Expr{s.LHS, s.RHS}
	case *ExprStmt:
		return []Expr{s.X}
	case *IfStmt:
		return []Expr{s.Cond}
	case *WhileStmt:
		return []Expr{s.Cond}
	case *ForStmt:
		return []Expr{s.Lo, s.Hi}
	case *ReturnStmt:
		if s.X != nil {
			return []Expr{s.X}
		}
	case *PrintStmt:
		return []Expr{s.X}
	case *SyncBlock:
		return []Expr{s.Lock}
	}
	return nil
}
