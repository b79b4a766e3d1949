package interp

import (
	"math"
	"testing"

	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
)

func TestValueStrings(t *testing.T) {
	obj := &Object{Class: &ir.Class{Name: "C"}}
	arr := &Object{Elems: make([]Value, 3)}
	cases := []struct {
		v    Value
		want string
	}{
		{IntVal(-7), "-7"},
		{FloatVal(2.5), "2.5"},
		{BoolVal(true), "true"},
		{BoolVal(false), "false"},
		{Value{}, "nil"},
		{RefVal(nil), "nil"},
		{RefVal(arr), "array[3]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
	if got := RefVal(obj).String(); len(got) < 2 || got[0] != 'C' {
		t.Errorf("object string = %q", got)
	}
}

func TestValueEqual(t *testing.T) {
	a := &Object{}
	b := &Object{}
	cases := []struct {
		x, y Value
		want bool
	}{
		{IntVal(3), IntVal(3), true},
		{IntVal(3), IntVal(4), false},
		{IntVal(3), FloatVal(3), false}, // kinds differ
		{FloatVal(1.5), FloatVal(1.5), true},
		{BoolVal(true), BoolVal(true), true},
		{Value{}, Value{}, true},
		{RefVal(a), RefVal(a), true},
		{RefVal(a), RefVal(b), false},
	}
	for _, c := range cases {
		if got := c.x.Equal(c.y); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestIntrinsicsDeterministicAndTotal(t *testing.T) {
	args2 := []Value{FloatVal(1.25), FloatVal(-0.5)}
	args1f := []Value{FloatVal(2.0)}
	args1i := []Value{IntVal(42)}
	argsOf := map[string][]Value{
		"sqrt": args1f, "sin": args1f, "cos": args1f, "exp": args1f,
		"log": args1f, "floor": args1f, "fabs": args1f,
		"pow": args2, "interact": args2, "force": args2, "term": args2,
		"iabs": args1i, "work": args1i, "noise": args1i,
	}
	if f := (vm.Intrinsic{}).Form(); f != vm.ExtBoxed || boxed(vm.Intrinsic{}) != nil {
		t.Errorf("an intrinsic with no field set has form %d and an adapter", f)
	}
	for name, x := range vm.Intrinsics {
		fn := boxed(x)
		if fn == nil {
			t.Errorf("intrinsic %q has no typed form", name)
			continue
		}
		args, ok := argsOf[name]
		if !ok {
			t.Errorf("intrinsic %q has no test arguments", name)
			continue
		}
		v1, c1 := fn(args)
		v2, c2 := fn(args)
		if !v1.Equal(v2) || c1 != c2 {
			t.Errorf("intrinsic %q not deterministic", name)
		}
		if v1.Kind == KindFloat && (math.IsNaN(v1.F) || math.IsInf(v1.F, 0)) {
			t.Errorf("intrinsic %q produced non-finite value on benign input", name)
		}
	}
	// work's dynamic cost equals its argument, floored at zero.
	if _, c := boxed(vm.Intrinsics["work"])([]Value{IntVal(123)}); c != 123 {
		t.Errorf("work cost = %d", c)
	}
	if _, c := boxed(vm.Intrinsics["work"])([]Value{IntVal(-5)}); c != 0 {
		t.Errorf("negative work cost = %d", c)
	}
	// noise stays in [0,1).
	for i := int64(0); i < 1000; i++ {
		v, _ := boxed(vm.Intrinsics["noise"])([]Value{IntVal(i)})
		if v.F < 0 || v.F >= 1 {
			t.Fatalf("noise(%d) = %v out of range", i, v.F)
		}
	}
}

func TestZeroOf(t *testing.T) {
	if zeroOf(ir.ElemInt).Kind != KindInt || zeroOf(ir.ElemFloat).Kind != KindFloat ||
		zeroOf(ir.ElemBool).Kind != KindBool || zeroOf(ir.ElemRef).Kind != KindNil {
		t.Error("zeroOf kinds wrong")
	}
}
