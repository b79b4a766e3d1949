// Package lower compiles checked OBL ASTs to the register IR.
//
// The compiler lowers each synchronization policy's program clone into one
// shared ir.Program namespace, suffixing function names with the policy
// ("@original", "@bounded", "@aggressive"). Parallel loops (marked by the
// commutativity analysis) are extracted into section body functions, one
// per policy; a later deduplication pass (dedup.go) merges functions whose
// generated code is identical across policies, reproducing the paper's
// shared-subgraph code-size optimization and the version merging visible in
// the Water sections (§4.2, §6.2).
package lower

import (
	"fmt"
	"sort"

	"repro/internal/obl/ast"
	"repro/internal/obl/ir"
	"repro/internal/obl/sema"
	"repro/internal/obl/token"
)

// Builder accumulates an ir.Program across the lowering of several policy
// clones.
type Builder struct {
	prog       *ir.Program
	classIdx   map[string]int
	externIdx  map[string]int
	paramIdx   map[string]int
	sectionIdx map[string]int
	pending    []pendingCall
}

// pendingCall is a call site whose target function may not be lowered yet.
type pendingCall struct {
	funcID int
	pc     int
	target string
}

// NewBuilder creates a Builder with an empty program.
func NewBuilder() *Builder {
	return &Builder{
		prog: &ir.Program{
			FuncByName: map[string]int{},
			Params:     map[string]int64{},
			MainID:     -1,
		},
		classIdx:   map[string]int{},
		externIdx:  map[string]int{},
		paramIdx:   map[string]int{},
		sectionIdx: map[string]int{},
	}
}

// AddPolicy lowers one checked policy clone into the program under the
// given policy name. The first call also registers classes, externs and
// program parameters (identical across clones).
func (b *Builder) AddPolicy(info *sema.Info, policy string) error {
	if len(b.classIdx) == 0 {
		b.registerGlobals(info)
	}
	suffix := "@" + policy
	for _, fi := range info.AllFuncs() {
		if _, err := b.lowerFunc(info, fi, policy, suffix); err != nil {
			return err
		}
	}
	return nil
}

// AddFlagged lowers a flag-dispatch clone (§4.2 single-version mode): one
// body per function with conditional synchronization sites. Call
// FinalizeFlaggedSections afterwards to install the per-policy flag
// vectors on the sections.
func (b *Builder) AddFlagged(info *sema.Info, numSites int) error {
	if len(b.classIdx) == 0 {
		b.registerGlobals(info)
	}
	b.prog.NumFlagSites = numSites
	for _, fi := range info.AllFuncs() {
		if _, err := b.lowerFunc(info, fi, "flagged", "@flagged"); err != nil {
			return err
		}
	}
	return nil
}

// FinalizeFlaggedSections rewrites a flag-dispatch program's sections: each
// section keeps its single body function, with one version per policy
// carrying that policy's flag vector. Policies whose flags agree on the
// sites the section actually reaches share a version, mirroring the code
// merging of the multi-version build.
func FinalizeFlaggedSections(p *ir.Program, enabled map[string][]bool, policies []string) {
	p.FlagPolicies = map[string][]bool{}
	for name, vec := range enabled {
		p.FlagPolicies[name] = vec
	}
	for _, sec := range p.Sections {
		if len(sec.Versions) == 0 {
			continue
		}
		body := sec.Versions[0].FuncID
		used := usedFlagSites(p, body)
		var versions []ir.Version
		pv := map[string]int{}
		keyOf := func(vec []bool) string {
			out := make([]byte, 0, len(used))
			for _, site := range used {
				if vec[site] {
					out = append(out, '1')
				} else {
					out = append(out, '0')
				}
			}
			return string(out)
		}
		byKey := map[string]int{}
		for _, policy := range policies {
			vec := enabled[policy]
			k := keyOf(vec)
			if vi, ok := byKey[k]; ok {
				versions[vi].Policies = append(versions[vi].Policies, policy)
				pv[policy] = vi
				continue
			}
			vi := len(versions)
			byKey[k] = vi
			versions = append(versions, ir.Version{Policies: []string{policy}, FuncID: body, Flags: vec})
			pv[policy] = vi
		}
		sec.Versions = versions
		sec.PolicyVersion = pv
	}
}

// usedFlagSites returns the sorted conditional-sync sites reachable from a
// function.
func usedFlagSites(p *ir.Program, root int) []int {
	seen := map[int]bool{}
	stack := []int{root}
	sites := map[int]bool{}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		for _, in := range p.Funcs[id].Code {
			switch in.Op {
			case ir.OpCall:
				stack = append(stack, int(in.Imm))
			case ir.OpAcquireIf, ir.OpReleaseIf:
				sites[int(in.Imm)] = true
			}
		}
	}
	out := make([]int, 0, len(sites))
	for s := range sites {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// AddSerial lowers a serial clone (no parallel marks, no sync) without a
// policy suffix; used to build the Serial baseline program.
func (b *Builder) AddSerial(info *sema.Info) error {
	if len(b.classIdx) == 0 {
		b.registerGlobals(info)
	}
	for _, fi := range info.AllFuncs() {
		if _, err := b.lowerFunc(info, fi, "", ""); err != nil {
			return err
		}
	}
	return nil
}

func (b *Builder) registerGlobals(info *sema.Info) {
	prog := info.Program
	for _, c := range prog.Classes {
		ci := info.Classes[c.Name]
		cls := &ir.Class{Name: c.Name}
		for _, f := range ci.Fields {
			cls.Fields = append(cls.Fields, f.Name)
			kind := ir.ElemRef
			switch f.Type {
			case sema.Type(sema.Int):
				kind = ir.ElemInt
			case sema.Type(sema.Float):
				kind = ir.ElemFloat
			case sema.Type(sema.Bool):
				kind = ir.ElemBool
			}
			cls.FieldKinds = append(cls.FieldKinds, kind)
		}
		b.classIdx[c.Name] = len(b.prog.Classes)
		b.prog.Classes = append(b.prog.Classes, cls)
	}
	for _, e := range prog.Externs {
		b.externIdx[e.Name] = len(b.prog.Externs)
		b.prog.Externs = append(b.prog.Externs, ir.Extern{
			Name: e.Name, NArgs: len(e.Params), Cost: e.Cost,
		})
	}
	names := make([]string, 0, len(info.Params))
	for n := range info.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.paramIdx[n] = len(b.prog.ParamNames)
		b.prog.ParamNames = append(b.prog.ParamNames, n)
		b.prog.Params[n] = info.Params[n]
	}
}

// Finish resolves pending call sites and returns the program.
func (b *Builder) Finish() (*ir.Program, error) {
	for _, pc := range b.pending {
		id, ok := b.prog.FuncByName[pc.target]
		if !ok {
			return nil, fmt.Errorf("lower: unresolved call target %q", pc.target)
		}
		b.prog.Funcs[pc.funcID].Code[pc.pc].Imm = int64(id)
	}
	b.pending = nil
	if id, ok := b.prog.FuncByName["main@original"]; ok {
		b.prog.MainID = id
	} else if id, ok := b.prog.FuncByName["main@flagged"]; ok {
		b.prog.MainID = id
	} else if id, ok := b.prog.FuncByName["main"]; ok {
		b.prog.MainID = id
	}
	if b.prog.MainID < 0 {
		return nil, fmt.Errorf("lower: program has no main function")
	}
	return b.prog, nil
}

func (b *Builder) addFunc(f *ir.Func) int {
	id := len(b.prog.Funcs)
	b.prog.Funcs = append(b.prog.Funcs, f)
	b.prog.FuncByName[f.Name] = id
	return id
}

// fn is the per-function lowering state.
type fn struct {
	b      *Builder
	info   *sema.Info
	out    *ir.Func
	policy string
	suffix string
	// scopes maps names to registers, innermost last.
	scopes []map[string]ir.Reg
	isMeth bool
	// enclosing provides naming for extracted section bodies.
	enclosing string
}

func (b *Builder) lowerFunc(info *sema.Info, fi *sema.FuncInfo, policy, suffix string) (int, error) {
	name := fi.FullName() + suffix
	if id, ok := b.prog.FuncByName[name]; ok {
		return id, nil
	}
	out := &ir.Func{Name: name, Source: fi.FullName()}
	// Register before lowering the body so recursive and pending calls can
	// resolve to the reserved ID.
	id := b.addFunc(out)
	f := &fn{b: b, info: info, out: out, policy: policy, suffix: suffix,
		isMeth: fi.Class != nil, enclosing: fi.FullName()}
	f.pushScope()
	if f.isMeth {
		f.declare("this", f.newReg(ir.ElemRef))
	}
	for i, p := range fi.Decl.Params {
		f.declare(p.Name, f.newReg(kindOfType(fi.Params[i])))
	}
	out.NParams = out.NRegs
	if err := f.block(fi.Decl.Body); err != nil {
		return 0, err
	}
	f.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	return id, nil
}

func (f *fn) pushScope() { f.scopes = append(f.scopes, map[string]ir.Reg{}) }
func (f *fn) popScope()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *fn) declare(name string, r ir.Reg) { f.scopes[len(f.scopes)-1][name] = r }

func (f *fn) lookup(name string) (ir.Reg, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if r, ok := f.scopes[i][name]; ok {
			return r, true
		}
	}
	return 0, false
}

// newReg allocates a fresh register of the given representation kind.
// Registers are never retyped: every variable and temporary gets its own
// register, so the kind recorded here is the register's kind for life.
func (f *fn) newReg(k ir.ElemKind) ir.Reg {
	r := ir.Reg(f.out.NRegs)
	f.out.NRegs++
	f.out.RegKinds = append(f.out.RegKinds, k)
	return r
}

// kindOfType maps a checked type to its register representation. Void
// results occupy a register that is never read; they default to int.
func kindOfType(t sema.Type) ir.ElemKind {
	switch {
	case t == nil:
		return ir.ElemInt
	case t.Equal(sema.Int):
		return ir.ElemInt
	case t.Equal(sema.Float):
		return ir.ElemFloat
	case t.Equal(sema.Bool):
		return ir.ElemBool
	}
	switch t.(type) {
	case sema.Class, sema.Array:
		return ir.ElemRef
	}
	return ir.ElemInt
}

// astTypeKind maps a declared type annotation to its register kind,
// mirroring zeroInit's representation choice.
func astTypeKind(t ast.Type) ir.ElemKind {
	if pt, ok := t.(*ast.PrimType); ok {
		switch pt.Name {
		case "int":
			return ir.ElemInt
		case "float":
			return ir.ElemFloat
		case "bool":
			return ir.ElemBool
		}
	}
	return ir.ElemRef
}

func (f *fn) emit(in ir.Instr) int {
	pc := len(f.out.Code)
	f.out.Code = append(f.out.Code, in)
	return pc
}

func instr(op ir.Op) ir.Instr {
	return ir.Instr{Op: op, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
}

func (f *fn) errf(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("lower: %s: %s: %s", f.out.Name, pos, fmt.Sprintf(format, args...))
}

func (f *fn) block(b *ast.Block) error {
	f.pushScope()
	defer f.popScope()
	for _, s := range b.Stmts {
		if err := f.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *fn) stmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.Block:
		return f.block(s)
	case *ast.LetStmt:
		r := f.newReg(astTypeKind(s.Type))
		if s.Init != nil {
			if err := f.exprInto(s.Init, r); err != nil {
				return err
			}
		} else {
			f.zeroInit(r, s.Type)
		}
		f.declare(s.Name, r)
		return nil
	case *ast.AssignStmt:
		return f.assign(s)
	case *ast.ExprStmt:
		_, err := f.expr(s.X)
		return err
	case *ast.IfStmt:
		return f.ifStmt(s)
	case *ast.WhileStmt:
		return f.whileStmt(s)
	case *ast.ForStmt:
		if s.Parallel {
			return f.parallelFor(s)
		}
		return f.serialFor(s)
	case *ast.ReturnStmt:
		in := instr(ir.OpRet)
		if s.X != nil {
			r, err := f.expr(s.X)
			if err != nil {
				return err
			}
			in.A = r
		}
		f.emit(in)
		return nil
	case *ast.PrintStmt:
		r, err := f.expr(s.X)
		if err != nil {
			return err
		}
		in := instr(ir.OpPrint)
		in.A = r
		f.emit(in)
		return nil
	case *ast.SyncBlock:
		lock, err := f.expr(s.Lock)
		if err != nil {
			return err
		}
		acqOp, relOp := ir.OpAcquire, ir.OpRelease
		if s.Site > 0 {
			// Flag-dispatch mode (§4.2): conditional constructs gated by
			// the site's per-policy flag.
			acqOp, relOp = ir.OpAcquireIf, ir.OpReleaseIf
		}
		acq := instr(acqOp)
		acq.A = lock
		acq.Imm = int64(s.Site - 1)
		f.emit(acq)
		if err := f.block(s.Body); err != nil {
			return err
		}
		rel := instr(relOp)
		rel.A = lock
		rel.Imm = int64(s.Site - 1)
		f.emit(rel)
		return nil
	default:
		return f.errf(s.Pos(), "unknown statement %T", s)
	}
}

func (f *fn) zeroInit(r ir.Reg, t ast.Type) {
	in := instr(ir.OpConstInt)
	in.Dst = r
	switch tt := t.(type) {
	case *ast.PrimType:
		switch tt.Name {
		case "float":
			in.Op = ir.OpConstFloat
		case "bool":
			in.Op = ir.OpConstBool
		}
	default:
		in.Op = ir.OpConstNil
	}
	f.emit(in)
}

func (f *fn) assign(s *ast.AssignStmt) error {
	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		r, ok := f.lookup(lhs.Name)
		if !ok {
			return f.errf(lhs.P, "undefined local %q", lhs.Name)
		}
		return f.exprInto(s.RHS, r)
	case *ast.FieldExpr:
		obj, err := f.expr(lhs.X)
		if err != nil {
			return err
		}
		val, err := f.expr(s.RHS)
		if err != nil {
			return err
		}
		idx, err := f.fieldIndex(lhs)
		if err != nil {
			return err
		}
		in := instr(ir.OpStoreField)
		in.A = obj
		in.B = val
		in.Imm = int64(idx)
		f.emit(in)
		return nil
	case *ast.IndexExpr:
		arr, err := f.expr(lhs.X)
		if err != nil {
			return err
		}
		idx, err := f.expr(lhs.Index)
		if err != nil {
			return err
		}
		val, err := f.expr(s.RHS)
		if err != nil {
			return err
		}
		in := instr(ir.OpStoreIndex)
		in.A = arr
		in.B = idx
		in.C = val
		f.emit(in)
		return nil
	default:
		return f.errf(s.P, "bad assignment target %T", lhs)
	}
}

func (f *fn) fieldIndex(e *ast.FieldExpr) (int, error) {
	t, ok := f.info.ExprType[e.X].(sema.Class)
	if !ok {
		return 0, f.errf(e.P, "no class type for field %s", e.Name)
	}
	fi, ok := t.Info.FieldBy[e.Name]
	if !ok {
		return 0, f.errf(e.P, "no field %s", e.Name)
	}
	return fi.Index, nil
}

func (f *fn) ifStmt(s *ast.IfStmt) error {
	cond, err := f.expr(s.Cond)
	if err != nil {
		return err
	}
	br := instr(ir.OpBrFalse)
	br.A = cond
	brPC := f.emit(br)
	if err := f.block(s.Then); err != nil {
		return err
	}
	if s.Else == nil {
		f.out.Code[brPC].Imm = int64(len(f.out.Code))
		return nil
	}
	jmp := f.emit(instr(ir.OpJump))
	f.out.Code[brPC].Imm = int64(len(f.out.Code))
	if err := f.block(s.Else); err != nil {
		return err
	}
	f.out.Code[jmp].Imm = int64(len(f.out.Code))
	return nil
}

func (f *fn) whileStmt(s *ast.WhileStmt) error {
	head := len(f.out.Code)
	cond, err := f.expr(s.Cond)
	if err != nil {
		return err
	}
	br := instr(ir.OpBrFalse)
	br.A = cond
	brPC := f.emit(br)
	if err := f.block(s.Body); err != nil {
		return err
	}
	jmp := instr(ir.OpJump)
	jmp.Imm = int64(head)
	f.emit(jmp)
	f.out.Code[brPC].Imm = int64(len(f.out.Code))
	return nil
}

func (f *fn) serialFor(s *ast.ForStmt) error {
	iv := f.newReg(ir.ElemInt)
	if err := f.exprInto(s.Lo, iv); err != nil {
		return err
	}
	hi := f.newReg(ir.ElemInt)
	if err := f.exprInto(s.Hi, hi); err != nil {
		return err
	}
	head := len(f.out.Code)
	cond := f.newReg(ir.ElemBool)
	cmp := instr(ir.OpLtI)
	cmp.Dst = cond
	cmp.A = iv
	cmp.B = hi
	f.emit(cmp)
	br := instr(ir.OpBrFalse)
	br.A = cond
	brPC := f.emit(br)
	f.pushScope()
	f.declare(s.Var, iv)
	if err := f.block(s.Body); err != nil {
		return err
	}
	f.popScope()
	one := f.newReg(ir.ElemInt)
	ci := instr(ir.OpConstInt)
	ci.Dst = one
	ci.Imm = 1
	f.emit(ci)
	add := instr(ir.OpAddI)
	add.Dst = iv
	add.A = iv
	add.B = one
	f.emit(add)
	jmp := instr(ir.OpJump)
	jmp.Imm = int64(head)
	f.emit(jmp)
	f.out.Code[brPC].Imm = int64(len(f.out.Code))
	return nil
}

// parallelFor lowers a parallel loop: the body becomes a section body
// function taking the captured free variables plus the iteration index, and
// the loop site becomes an OpParallel instruction.
func (f *fn) parallelFor(s *ast.ForStmt) error {
	lo, err := f.expr(s.Lo)
	if err != nil {
		return err
	}
	hi, err := f.expr(s.Hi)
	if err != nil {
		return err
	}
	captured := f.freeVars(s)
	// Section registry entry (shared across policies).
	secID, ok := f.b.sectionIdx[s.Section]
	if !ok {
		secID = len(f.b.prog.Sections)
		f.b.sectionIdx[s.Section] = secID
		f.b.prog.Sections = append(f.b.prog.Sections, &ir.Section{
			ID: secID, Name: s.Section,
			PolicyVersion: map[string]int{},
			NCaptured:     len(captured),
		})
	}
	sec := f.b.prog.Sections[secID]
	if sec.NCaptured != len(captured) {
		return f.errf(s.P, "section %s captured-variable mismatch: %d vs %d",
			s.Section, sec.NCaptured, len(captured))
	}

	// Lower the body function for this policy.
	bodyName := fmt.Sprintf("%s$%s%s", f.enclosing, s.Section, f.suffix)
	bf := &ir.Func{Name: bodyName, Source: fmt.Sprintf("%s$%s", f.enclosing, s.Section)}
	bfn := &fn{b: f.b, info: f.info, out: bf, policy: f.policy, suffix: f.suffix,
		isMeth: false, enclosing: f.enclosing}
	bodyID := f.b.addFunc(bf)
	bfn.pushScope()
	for _, name := range captured {
		k := ir.ElemInt
		if r, ok := f.lookup(name); ok {
			k = f.out.RegKinds[r]
		}
		bfn.declare(name, bfn.newReg(k))
	}
	bfn.declare(s.Var, bfn.newReg(ir.ElemInt))
	bf.NParams = bf.NRegs
	if err := bfn.block(s.Body); err != nil {
		return err
	}
	bfn.emit(instr(ir.OpRet))

	vi := len(sec.Versions)
	sec.Versions = append(sec.Versions, ir.Version{Policies: []string{f.policy}, FuncID: bodyID})
	sec.PolicyVersion[f.policy] = vi

	// Emit the section entry in the enclosing function.
	args := make([]ir.Reg, 0, len(captured))
	for _, name := range captured {
		r, ok := f.lookup(name)
		if !ok {
			return f.errf(s.P, "captured variable %q not in scope", name)
		}
		args = append(args, r)
	}
	in := instr(ir.OpParallel)
	in.Imm = int64(secID)
	in.A = lo
	in.B = hi
	in.Args = args
	f.emit(in)
	return nil
}

// freeVars returns the sorted names of locals and parameters referenced by
// the loop body but declared outside it.
func (f *fn) freeVars(s *ast.ForStmt) []string {
	declared := map[string]bool{s.Var: true}
	used := map[string]bool{}
	ast.Inspect(s.Body, func(st ast.Stmt) bool {
		for _, e := range ast.Operands(st) {
			ast.InspectExpr(e, func(e ast.Expr) bool {
				if id, ok := e.(*ast.Ident); ok && f.info.RefKinds[id] == sema.RefLocal && !declared[id.Name] {
					used[id.Name] = true
				}
				return true
			})
		}
		// A declaration takes effect after its own operands: a let after
		// its initializer, a loop variable after the bounds.
		switch st := st.(type) {
		case *ast.LetStmt:
			declared[st.Name] = true
		case *ast.ForStmt:
			declared[st.Var] = true
		}
		return true
	})
	names := make([]string, 0, len(used))
	for n := range used {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// exprInto lowers e and ensures the result lands in dst.
func (f *fn) exprInto(e ast.Expr, dst ir.Reg) error {
	r, err := f.expr(e)
	if err != nil {
		return err
	}
	if r != dst {
		in := instr(ir.OpMov)
		in.Dst = dst
		in.A = r
		f.emit(in)
	}
	return nil
}

func (f *fn) expr(e ast.Expr) (ir.Reg, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		r := f.newReg(ir.ElemInt)
		in := instr(ir.OpConstInt)
		in.Dst = r
		in.Imm = e.Val
		f.emit(in)
		return r, nil
	case *ast.FloatLit:
		r := f.newReg(ir.ElemFloat)
		in := instr(ir.OpConstFloat)
		in.Dst = r
		in.F = e.Val
		f.emit(in)
		return r, nil
	case *ast.BoolLit:
		r := f.newReg(ir.ElemBool)
		in := instr(ir.OpConstBool)
		in.Dst = r
		if e.Val {
			in.Imm = 1
		}
		f.emit(in)
		return r, nil
	case *ast.ThisExpr:
		r, ok := f.lookup("this")
		if !ok {
			return 0, f.errf(e.P, "this outside method")
		}
		return r, nil
	case *ast.Ident:
		if f.info.RefKinds[e] == sema.RefParam {
			r := f.newReg(ir.ElemInt)
			in := instr(ir.OpLoadParam)
			in.Dst = r
			in.Imm = int64(f.b.paramIdx[e.Name])
			f.emit(in)
			return r, nil
		}
		r, ok := f.lookup(e.Name)
		if !ok {
			return 0, f.errf(e.P, "undefined %q", e.Name)
		}
		return r, nil
	case *ast.FieldExpr:
		obj, err := f.expr(e.X)
		if err != nil {
			return 0, err
		}
		idx, err := f.fieldIndex(e)
		if err != nil {
			return 0, err
		}
		r := f.newReg(kindOfType(f.info.ExprType[e]))
		in := instr(ir.OpLoadField)
		in.Dst = r
		in.A = obj
		in.Imm = int64(idx)
		f.emit(in)
		return r, nil
	case *ast.IndexExpr:
		arr, err := f.expr(e.X)
		if err != nil {
			return 0, err
		}
		idx, err := f.expr(e.Index)
		if err != nil {
			return 0, err
		}
		r := f.newReg(kindOfType(f.info.ExprType[e]))
		in := instr(ir.OpLoadIndex)
		in.Dst = r
		in.A = arr
		in.B = idx
		f.emit(in)
		return r, nil
	case *ast.CallExpr:
		return f.call(e)
	case *ast.NewExpr:
		return f.newExpr(e)
	case *ast.BinExpr:
		return f.binExpr(e)
	case *ast.UnExpr:
		x, err := f.expr(e.X)
		if err != nil {
			return 0, err
		}
		rk := ir.ElemBool
		in := instr(ir.OpNot)
		if e.Op == token.Minus {
			if t, ok := f.info.ExprType[e.X]; ok && t.Equal(sema.Float) {
				in.Op = ir.OpNegF
				rk = ir.ElemFloat
			} else {
				in.Op = ir.OpNegI
				rk = ir.ElemInt
			}
		}
		r := f.newReg(rk)
		in.Dst = r
		in.A = x
		f.emit(in)
		return r, nil
	default:
		return 0, f.errf(e.Pos(), "unknown expression %T", e)
	}
}

func (f *fn) newExpr(e *ast.NewExpr) (ir.Reg, error) {
	r := f.newReg(ir.ElemRef)
	if e.Count == nil {
		ct, ok := e.Type.(*ast.ClassType)
		if !ok {
			return 0, f.errf(e.P, "new of non-class")
		}
		in := instr(ir.OpNew)
		in.Dst = r
		in.Imm = int64(f.b.classIdx[ct.Name])
		f.emit(in)
		return r, nil
	}
	n, err := f.expr(e.Count)
	if err != nil {
		return 0, err
	}
	kind := ir.ElemRef
	if pt, ok := e.Type.(*ast.PrimType); ok {
		switch pt.Name {
		case "int":
			kind = ir.ElemInt
		case "float":
			kind = ir.ElemFloat
		case "bool":
			kind = ir.ElemBool
		}
	}
	in := instr(ir.OpNewArr)
	in.Dst = r
	in.A = n
	in.Imm = int64(kind)
	f.emit(in)
	return r, nil
}

func (f *fn) call(e *ast.CallExpr) (ir.Reg, error) {
	if name, ok := f.info.BuiltinCalls[e]; ok {
		arg, err := f.expr(e.Args[0])
		if err != nil {
			return 0, err
		}
		var op ir.Op
		rk := ir.ElemInt
		switch name {
		case "tofloat":
			op = ir.OpIntToFloat
			rk = ir.ElemFloat
		case "toint":
			op = ir.OpFloatToInt
		case "len":
			op = ir.OpLen
		}
		r := f.newReg(rk)
		in := instr(op)
		in.Dst = r
		in.A = arg
		f.emit(in)
		return r, nil
	}
	var args []ir.Reg
	if e.Recv != nil {
		recv, err := f.expr(e.Recv)
		if err != nil {
			return 0, err
		}
		args = append(args, recv)
	}
	for _, a := range e.Args {
		r, err := f.expr(a)
		if err != nil {
			return 0, err
		}
		args = append(args, r)
	}
	r := f.newReg(kindOfType(f.info.ExprType[e]))
	if ext, ok := f.info.ExternCalls[e]; ok {
		in := instr(ir.OpCallExtern)
		in.Dst = r
		in.Imm = int64(f.b.externIdx[ext.Decl.Name])
		in.Args = args
		f.emit(in)
		return r, nil
	}
	target, ok := f.info.CallTarget[e]
	if !ok {
		return 0, f.errf(e.P, "unresolved call %q", e.Name)
	}
	name := target.FullName() + f.suffix
	in := instr(ir.OpCall)
	in.Dst = r
	in.Args = args
	pc := f.emit(in)
	if id, ok := f.b.prog.FuncByName[name]; ok {
		f.out.Code[pc].Imm = int64(id)
	} else {
		f.b.pending = append(f.b.pending, pendingCall{
			funcID: f.b.prog.FuncByName[f.out.Name], pc: pc, target: name,
		})
	}
	return r, nil
}

func (f *fn) binExpr(e *ast.BinExpr) (ir.Reg, error) {
	// Short-circuit logical operators.
	if e.Op == token.AndAnd || e.Op == token.OrOr {
		r := f.newReg(ir.ElemBool)
		if err := f.exprInto(e.L, r); err != nil {
			return 0, err
		}
		var brPC int
		if e.Op == token.AndAnd {
			br := instr(ir.OpBrFalse)
			br.A = r
			brPC = f.emit(br)
		} else {
			not := f.newReg(ir.ElemBool)
			n := instr(ir.OpNot)
			n.Dst = not
			n.A = r
			f.emit(n)
			br := instr(ir.OpBrFalse)
			br.A = not
			brPC = f.emit(br)
		}
		if err := f.exprInto(e.R, r); err != nil {
			return 0, err
		}
		f.out.Code[brPC].Imm = int64(len(f.out.Code))
		return r, nil
	}
	l, err := f.expr(e.L)
	if err != nil {
		return 0, err
	}
	r, err := f.expr(e.R)
	if err != nil {
		return 0, err
	}
	isFloat := false
	if t, ok := f.info.ExprType[e.L]; ok && t.Equal(sema.Float) {
		isFloat = true
	}
	var op ir.Op
	switch e.Op {
	case token.Plus:
		op = ir.OpAddI
		if isFloat {
			op = ir.OpAddF
		}
	case token.Minus:
		op = ir.OpSubI
		if isFloat {
			op = ir.OpSubF
		}
	case token.Star:
		op = ir.OpMulI
		if isFloat {
			op = ir.OpMulF
		}
	case token.Slash:
		op = ir.OpDivI
		if isFloat {
			op = ir.OpDivF
		}
	case token.Percent:
		op = ir.OpModI
	case token.Eq:
		op = ir.OpEq
	case token.NotEq:
		op = ir.OpNe
	case token.Lt:
		op = ir.OpLtI
		if isFloat {
			op = ir.OpLtF
		}
	case token.LtEq:
		op = ir.OpLeI
		if isFloat {
			op = ir.OpLeF
		}
	case token.Gt:
		op = ir.OpGtI
		if isFloat {
			op = ir.OpGtF
		}
	case token.GtEq:
		op = ir.OpGeI
		if isFloat {
			op = ir.OpGeF
		}
	default:
		return 0, f.errf(e.P, "bad binary op %v", e.Op)
	}
	dk := ir.ElemBool
	switch e.Op {
	case token.Plus, token.Minus, token.Star, token.Slash, token.Percent:
		dk = ir.ElemInt
		if isFloat {
			dk = ir.ElemFloat
		}
	}
	dst := f.newReg(dk)
	in := instr(op)
	in.Dst = dst
	in.A = l
	in.B = r
	f.emit(in)
	return dst, nil
}
