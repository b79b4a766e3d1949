package interp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
	"repro/internal/simmach"
)

// Kind tags a runtime value.
type Kind uint8

// Value kinds.
const (
	KindNil Kind = iota
	KindInt
	KindFloat
	KindBool
	KindRef
)

// Value is an OBL runtime value. Booleans are stored in I.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	Ref  *Object
}

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{Kind: KindInt, I: i} }

// FloatVal makes a float value.
func FloatVal(f float64) Value { return Value{Kind: KindFloat, F: f} }

// BoolVal makes a boolean value.
func BoolVal(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// RefVal makes a reference value.
func RefVal(o *Object) Value { return Value{Kind: KindRef, Ref: o} }

// String formats the value as the print statement shows it.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.I != 0)
	case KindRef:
		if v.Ref == nil {
			return "nil"
		}
		if v.Ref.Class != nil {
			return fmt.Sprintf("%s@%p", v.Ref.Class.Name, v.Ref)
		}
		return fmt.Sprintf("array[%d]", len(v.Ref.Elems))
	default:
		return fmt.Sprintf("Value(kind=%d)", v.Kind)
	}
}

// Equal implements the == operator (matching kinds compared by value;
// references by identity).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNil:
		return true
	case KindInt, KindBool:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindRef:
		return v.Ref == o.Ref
	}
	return false
}

// Object is a heap object: a class instance (Fields) or an array (Elems).
// As in the paper's execution model, every object carries a mutual
// exclusion lock, created lazily on first acquire.
type Object struct {
	Class  *ir.Class
	Fields []Value
	Elems  []Value
	lock   *simmach.Lock
}

// Lock returns the object's mutual exclusion lock, creating it on first
// use.
func (o *Object) Lock(m *simmach.Machine) *simmach.Lock {
	if o.lock == nil {
		name := "array"
		if o.Class != nil {
			name = o.Class.Name
		}
		o.lock = m.NewLock(name)
	}
	return o.lock
}

// boxed adapts an extern's typed host implementation (vm.Intrinsics) to
// boxed arguments in declaration order, for the step interpreter: it
// returns the value and the extra cost beyond the extern's declared static
// cost (work's charge). CheckExterns holds every call in a function with
// register kinds to the form's kinds. An intrinsic with no form has no
// adapter.
func boxed(x vm.Intrinsic) func(args []Value) (Value, simmach.Time) {
	switch x.Form() {
	case vm.ExtFF:
		return func(a []Value) (Value, simmach.Time) { return FloatVal(x.FF(a[0].F)), 0 }
	case vm.ExtFFF:
		return func(a []Value) (Value, simmach.Time) { return FloatVal(x.FFF(a[0].F, a[1].F)), 0 }
	case vm.ExtIF:
		return func(a []Value) (Value, simmach.Time) { return FloatVal(x.IF(a[0].I)), 0 }
	case vm.ExtII:
		return func(a []Value) (Value, simmach.Time) { return IntVal(x.II(a[0].I)), 0 }
	case vm.ExtWork:
		return func(a []Value) (Value, simmach.Time) { return Value{}, workCharge(a[0].I) }
	}
	return nil
}

// workCharge is work(n)'s cost: n virtual nanoseconds, floored at zero.
func workCharge(n int64) simmach.Time { return simmach.Time(max(n, 0)) }

// zeroOf returns the zero value for an element kind (nil for references).
func zeroOf(k ir.ElemKind) Value {
	switch k {
	case ir.ElemInt:
		return IntVal(0)
	case ir.ElemFloat:
		return FloatVal(0)
	case ir.ElemBool:
		return BoolVal(false)
	default:
		return Value{}
	}
}

// CheckExterns verifies that every extern in the program has an
// implementation (vm.Intrinsics), and that every call of one fits its
// implementation's form (vm.ExternForm.Fits). A function without register
// kinds is left to the engine: the VM refuses it, and the oracle reads an
// argument of another kind as zero.
func CheckExterns(p *ir.Program) error {
	for _, e := range p.Externs {
		if _, ok := vm.Intrinsics[e.Name]; !ok {
			names := make([]string, 0, len(vm.Intrinsics))
			for name := range vm.Intrinsics {
				names = append(names, name)
			}
			slices.Sort(names)
			return fmt.Errorf("interp: extern %q has no implementation; available: %s", e.Name, strings.Join(names, " "))
		}
	}
	for _, f := range p.Funcs {
		if f.RegKinds == nil {
			continue
		}
		for pc, in := range f.Code {
			if in.Op == ir.OpCallExtern && !vm.Intrinsics[p.Externs[in.Imm].Name].Form().Fits(in, f.RegKinds) {
				return fmt.Errorf("interp: %s: pc %d: the call of extern %q does not match its implementation's signature",
					f.Name, pc, p.Externs[in.Imm].Name)
			}
		}
	}
	return nil
}
