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

// Operands returns the expressions s itself evaluates, in evaluation
// order: not those of the statements nested in it, and not an optional
// operand that is absent. Together with Inspect it reaches every
// expression of a statement tree, so a check written over the two cannot
// forget an operand position.
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
