package vm

import "math"

// ExternForm is the typed form of an extern's host implementation: what
// a call passes it and gets back.
type ExternForm uint8

// The extern forms. ExtBoxed is the form of a name with no host
// implementation.
const (
	ExtBoxed ExternForm = iota
	ExtFF               // float -> float
	ExtFFF              // float x float -> float
	ExtIF               // int -> float
	ExtII               // int -> int
	ExtWork             // int -> int 0: charges its argument, floored at zero
)

// Intrinsic is the host implementation of an extern, defined once in its
// typed form: exactly one field is set. Both engines run it: the VM calls
// the forms with an unboxed opcode (externSigs) directly, and
// internal/interp derives the boxed adapter the step interpreter and the
// VM's boxed calls use from the same form.
type Intrinsic struct {
	FF   func(float64) float64
	FFF  func(float64, float64) float64
	IF   func(int64) float64
	II   func(int64) int64
	Work bool // work(n): n virtual nanoseconds, floored at zero; returns 0
}

// Form is the intrinsic's typed form, ExtBoxed when no field is set.
func (x Intrinsic) Form() ExternForm {
	switch {
	case x.FF != nil:
		return ExtFF
	case x.FFF != nil:
		return ExtFFF
	case x.IF != nil:
		return ExtIF
	case x.II != nil:
		return ExtII
	case x.Work:
		return ExtWork
	}
	return ExtBoxed
}

// Intrinsics is the registry of extern implementations available to OBL
// programs, keyed by extern name. Every extern an OBL program declares
// must appear here; they are the "nice primitives" of the host language
// (math) plus work(n), which stands in for the numeric kernels that the
// miniature applications elide (documented as a substitution in
// DESIGN.md).
var Intrinsics = map[string]Intrinsic{
	"sqrt":  {FF: math.Sqrt},
	"sin":   {FF: math.Sin},
	"cos":   {FF: math.Cos},
	"exp":   {FF: math.Exp},
	"log":   {FF: math.Log},
	"pow":   {FFF: math.Pow},
	"floor": {FF: math.Floor},
	"fabs":  {FF: math.Abs},
	"iabs": {II: func(i int64) int64 {
		if i < 0 {
			return -i
		}
		return i
	}},
	// work(n) costs n virtual nanoseconds and returns nothing.
	"work": {Work: true},
	// noise(i) is a deterministic hash of i in [0, 1).
	"noise": {IF: func(i int64) float64 { return hash01(uint64(i)) }},
	// Smooth deterministic binary kernels for the applications' physics.
	"interact": {FFF: func(x, y float64) float64 { return x * y / (1 + math.Abs(x-y)) }},
	"force": {FFF: func(a, b float64) float64 {
		d := a - b
		return d / (1 + d*d)
	}},
	"term": {FFF: func(a, b float64) float64 { return math.Cos(a) * math.Sin(b) }},
}

// hash01 maps a 64-bit integer to [0,1) deterministically (splitmix64).
func hash01(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
