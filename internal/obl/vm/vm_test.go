package vm_test

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/obl/vm"
	"repro/oblc"
)

func TestInstrIsOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(vm.Instr{}); s != 64 {
		t.Fatalf("vm.Instr is %d bytes, want 64 (one cache line)", s)
	}
}

func TestFloatConstRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.5, 3.141592653589793, -1e300, 5e-324} {
		var in vm.Instr
		in.SetF(f)
		if got := in.F(); got != f {
			t.Errorf("SetF(%g).F() = %g", f, got)
		}
	}
}

func compileApp(t *testing.T, name string) *vm.Module {
	t.Helper()
	c, err := apps.Compile(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.Compile(c.Parallel)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCompileTranslatesOneToOne: every source instruction has exactly one
// slot in its own function's plain stream, in source order; the slots in
// between are the bodies inline expansion spliced in.
func TestCompileTranslatesOneToOne(t *testing.T) {
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.Compile(c.Parallel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m.Funcs) != len(c.Parallel.Funcs) {
			t.Fatalf("%s: %d compiled funcs, want %d", name, len(m.Funcs), len(c.Parallel.Funcs))
		}
		for _, fc := range m.Funcs {
			next := 0
			for pc := range fc.Plain {
				at := fc.Src[pc]
				if int(at.Fn) != fc.ID {
					continue
				}
				if int(at.PC) != next {
					t.Errorf("%s/%s: slot %d has source pc %d, want %d", name, fc.Name, pc, at.PC, next)
				}
				next++
			}
			if want := len(c.Parallel.Funcs[fc.ID].Code); next != want {
				t.Errorf("%s/%s: %d own slots, want %d", name, fc.Name, next, want)
			}
		}
	}
}

// TestCompileRejectsConditionalSync: flag dispatch (§4.2) runs only on the
// reference oracle, so every application's flag-dispatch build is refused
// with an error naming its first conditional site.
func TestCompileRejectsConditionalSync(t *testing.T) {
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Flagged.NumFlagSites == 0 {
			t.Fatalf("%s: flag-dispatch build has no conditional sites", name)
		}
		_, err = vm.Compile(c.Flagged)
		if err == nil || !strings.Contains(err.Error(), "conditional sync site") {
			t.Errorf("%s: vm.Compile of the flag-dispatch build: got %v, want the conditional-site error", name, err)
		}
	}
}

func TestCompileInlinesLeafCall(t *testing.T) {
	c, err := oblc.Compile(`
func add1(x: float): float {
  return x + 1.0;
}
func main() {
  let s: float = 0.0;
  for i in 0..100 {
    s = add1(s);
  }
  print s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.Compile(c.Serial)
	if err != nil {
		t.Fatal(err)
	}
	enters, irets := 0, 0
	for _, fc := range m.Funcs {
		for pc := range fc.Plain {
			switch fc.Plain[pc].Op {
			case vm.OpCallEnter:
				enters++
			case vm.OpIRetF, vm.OpIRetVoid:
				irets++
			}
		}
	}
	if enters != 1 || irets == 0 {
		t.Fatalf("leaf call not inlined once: %d enters, %d inline returns", enters, irets)
	}
}

// TestIntLeafStaysACall: a leaf that returns an int is not spliced, since
// no inline return writes an int (no census section calls such a leaf).
func TestIntLeafStaysACall(t *testing.T) {
	c, err := oblc.Compile(`
func add1(x: int): int {
  return x + 1;
}
func main() {
  let s: int = 0;
  for i in 0..100 {
    s = add1(s);
  }
  print s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.Compile(c.Serial)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[vm.Op]int{}
	for _, in := range m.Funcs[c.Serial.MainID].Plain {
		ops[in.Op]++
	}
	if ops[vm.OpCallEnter] != 0 || ops[vm.OpCall] != 1 {
		t.Fatalf("main has %d splices and %d calls, want 0 and 1", ops[vm.OpCallEnter], ops[vm.OpCall])
	}
}

func TestTailCallMarked(t *testing.T) {
	c, err := oblc.Compile(`
func count(i: int, n: int): int {
  if i >= n {
    return i;
  }
  return count(i + 1, n);
}
func main() {
  print count(0, 10);
}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.Compile(c.Serial)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fc := range m.Funcs {
		for pc := range fc.Code {
			if fc.Code[pc].Op == vm.OpTailCall {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("self-recursive valued return not marked as tail call")
	}
}

func TestDisasmMentionsSpecializedOps(t *testing.T) {
	m := compileApp(t, apps.NameWater)
	var all strings.Builder
	for _, fc := range m.Funcs {
		all.WriteString(fc.Disasm())
	}
	text := all.String()
	for _, want := range []string{"func ", "+br", " len="} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly does not mention %q", want)
		}
	}
}
