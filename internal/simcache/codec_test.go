package simcache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/obl/analysis"
	"repro/internal/obl/lower"
	"repro/internal/obl/sema"
	"repro/internal/obl/syncopt"
	"repro/internal/perturb"
	"repro/internal/simmach"
)

// seal gives data's first len-4 bytes the checksum they should carry, so a
// test can damage an entry where the checksum would otherwise stop it.
func seal(data []byte) []byte {
	if len(data) < crc32.Size {
		return data
	}
	body := data[:len(data)-crc32.Size]
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli))
}

// entryWithSchema is encodeEntry claiming another schema version.
func entryWithSchema(schema uint64, key string, res *interp.Result) []byte {
	c := codec{b: []byte(entryMagic)}
	c.u64(&schema)
	c.str(&key)
	c.result(res)
	return seal(append(c.b, 0, 0, 0, 0))
}

// filler sets every field reflect can reach from a value to a distinct
// non-zero one. Slices get two elements and pointers a target, except at
// the first visit of the one site named, which is left nil or made empty.
type filler struct {
	t     testing.TB
	seq   int64
	site  string // slice or pointer site to degrade; "" for none
	empty bool   // degrade a slice to empty rather than nil
	hit   bool
	sites map[string]reflect.Kind // every site met
}

func (f *filler) degrade(path string, kind reflect.Kind) bool {
	f.sites[path] = kind
	if path != f.site || f.hit {
		return false
	}
	f.hit = true
	return true
}

func (f *filler) fill(v reflect.Value, path string) {
	f.seq++
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		// Both signs, and one to six varint bytes.
		n := f.seq * []int64{1, 1_000, 1_000_000_007}[f.seq%3]
		if f.seq%2 == 0 {
			n = -n
		}
		v.SetInt(n)
	case reflect.Float64:
		v.SetFloat(float64(f.seq) + 1/float64(f.seq+2))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.seq))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		if f.degrade(path, reflect.Slice) {
			if f.empty {
				v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			}
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			f.fill(v.Index(i), path+"[]")
		}
	case reflect.Pointer:
		if f.degrade(path, reflect.Pointer) {
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), path)
	default:
		f.t.Fatalf("%s: the filler does not know kind %s; teach it, and the codec, the new field", path, v.Kind())
	}
}

func filled(t testing.TB, site string, empty bool) (*interp.Result, map[string]reflect.Kind) {
	f := &filler{t: t, site: site, empty: empty, sites: map[string]reflect.Kind{}}
	res := new(interp.Result)
	f.fill(reflect.ValueOf(res).Elem(), "Result")
	if site != "" && !f.hit {
		t.Fatalf("site %s not met", site)
	}
	return res, f.sites
}

func roundTrip(t *testing.T, res *interp.Result) *interp.Result {
	t.Helper()
	data := encodeEntry(keyA, res)
	got, err := decodeEntry(data, keyA)
	if err != nil {
		t.Fatalf("decoding a fresh entry: %v", err)
	}
	if again := encodeEntry(keyA, got); !bytes.Equal(again, data) {
		t.Fatal("a decoded entry re-encodes to other bytes")
	}
	return got
}

// TestCodecCarriesEveryField round-trips a Result with every field of every
// struct in its tree set, then once more per slice site (nil, empty) and
// pointer site (nil) with that one site degraded: a field the codec skips
// comes back zero, a header that folds nil into empty comes back the other.
func TestCodecCarriesEveryField(t *testing.T) {
	full, sites := filled(t, "", false)
	if got := roundTrip(t, full); !reflect.DeepEqual(got, full) {
		t.Errorf("full result came back different: %s", firstDiff(reflect.ValueOf(got), reflect.ValueOf(full), "Result"))
	}
	for site, kind := range sites {
		for _, empty := range []bool{false, true} {
			if empty && kind == reflect.Pointer {
				continue
			}
			res, _ := filled(t, site, empty)
			if got := roundTrip(t, res); !reflect.DeepEqual(got, res) {
				t.Errorf("%s (empty=%v) came back different: %s", site, empty, firstDiff(reflect.ValueOf(got), reflect.ValueOf(res), "Result"))
			}
		}
	}
	t.Logf("%d slice and pointer sites", len(sites))
}

// firstDiff names the first place two values of one type part ways.
func firstDiff(got, want reflect.Value, path string) string {
	switch got.Kind() {
	case reflect.Pointer:
		if !got.IsNil() && !want.IsNil() {
			return firstDiff(got.Elem(), want.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if d := firstDiff(got.Field(i), want.Field(i), path+"."+got.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if got.IsNil() == want.IsNil() && got.Len() == want.Len() {
			for i := 0; i < got.Len(); i++ {
				if d := firstDiff(got.Index(i), want.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
					return d
				}
			}
			return ""
		}
	}
	if reflect.DeepEqual(got.Interface(), want.Interface()) {
		return ""
	}
	return fmt.Sprintf("%s: got %#v, want %#v", path, got, want)
}

// realResults simulates a spread of cells: each app under a static policy,
// a dynamic run that switches, a perturbed one, a dynamic run of a second
// app, and a lock-elision mutant the race detector reports on.
func realResults(t testing.TB) map[string]*interp.Result {
	t.Helper()
	out := map[string]*interp.Result{}
	run := func(name, app string, opts interp.Options) *interp.Result {
		c, err := apps.Compile(app)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Params == nil {
			opts.Params = apps.TestParams(app)
		}
		res, err := interp.Run(c.Parallel, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res
		return res
	}
	run("barneshut/original", apps.NameBarnesHut, interp.Options{Procs: 4, Policy: "original"})
	run("water/bounded", apps.NameWater, interp.Options{Procs: 4, Policy: "bounded"})
	run("string/aggressive", apps.NameString, interp.Options{Procs: 4, Policy: "aggressive"})
	dyn := run("water/dynamic", apps.NameWater, interp.Options{Procs: 8, Policy: interp.PolicyDynamic,
		TargetSampling: simmach.Millisecond, TargetProduction: 20 * simmach.Millisecond})
	switches := 0
	for _, sec := range dyn.Sections {
		switches += len(sec.Switches)
	}
	if switches == 0 {
		t.Fatal("the dynamic run never entered production: no switch records to carry")
	}
	run("water/dynamic/ramp", apps.NameWater, interp.Options{Procs: 8, Policy: interp.PolicyDynamic,
		TargetSampling: simmach.Millisecond, TargetProduction: 20 * simmach.Millisecond, Perturb: perturb.Ramp()})
	run("barneshut/dynamic", apps.NameBarnesHut, interp.Options{Procs: 4, Policy: interp.PolicyDynamic,
		TargetSampling: simmach.Millisecond, TargetProduction: 20 * simmach.Millisecond})

	// Water with its first critical region elided races in INTERF.
	src, err := apps.Source(apps.NameWater)
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := analysis.BuildUnit(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.ElideRegion(u.PolicyProg(syncopt.Original), 0); err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(u.PolicyProg(syncopt.Original))
	if err != nil {
		t.Fatal(err)
	}
	b := lower.NewBuilder()
	if err := b.AddPolicy(info, string(syncopt.Original)); err != nil {
		t.Fatal(err)
	}
	mutant, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	racy, err := interp.Run(mutant, interp.Options{Procs: 8, Policy: "original", DetectRaces: true,
		Params: map[string]int64{"nmol": 32, "nsteps": 1, "energydepth": 1, "serialwork": 500}})
	if err != nil {
		t.Fatal(err)
	}
	if len(racy.Races) == 0 {
		t.Fatal("the elision mutant ran race-free: no race reports to carry")
	}
	out["water/elided/races"] = racy
	return out
}

// TestBinaryRoundTripMatchesJSON is the differential: what the disk tier
// hands back must be what the schema 1 JSON round trip handed back, and
// what went in, with EncodeResult of all three the same bytes.
func TestBinaryRoundTripMatchesJSON(t *testing.T) {
	for name, res := range realResults(t) {
		want, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON := new(interp.Result)
		if err := json.Unmarshal(want, viaJSON); err != nil {
			t.Fatal(err)
		}
		viaBinary := roundTrip(t, res)
		if !reflect.DeepEqual(viaBinary, viaJSON) {
			t.Errorf("%s: binary and JSON round trips differ", name)
		}
		if !reflect.DeepEqual(viaBinary, res) {
			t.Errorf("%s: binary round trip differs from the simulated result", name)
		}
		for form, got := range map[string]*interp.Result{"binary": viaBinary, "JSON": viaJSON} {
			if enc, _ := EncodeResult(got); !bytes.Equal(enc, want) {
				t.Errorf("%s: EncodeResult after the %s round trip is not byte-equal", name, form)
			}
		}
		entry := encodeEntry(keyA, res)
		t.Logf("%s: entry %d B, canonical JSON %d B", name, len(entry), len(want))
	}
}

// TestDamagedEntryIsNeverAHit flips every bit and takes every proper prefix
// of one real entry. Each must read as a counted miss: never a hit, never a
// panic.
func TestDamagedEntryIsNeverAHit(t *testing.T) {
	good := encodeEntry(keyA, realResults(t)["water/dynamic"])
	cache, err := New(Config{Dir: t.TempDir(), MemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	path := cache.entryPath(keyA)
	damaged := 0
	try := func(what string, data []byte) {
		t.Helper()
		damaged++
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.Get(keyA); ok {
			t.Fatalf("%s: a damaged entry was a hit", what)
		}
		// With the checksum made good the damage reaches the walk, which
		// must refuse it or decode something that encodes to those bytes.
		sealed := seal(data)
		if got, err := decodeEntry(sealed, keyA); err == nil && !bytes.Equal(encodeEntry(keyA, got), sealed) {
			t.Fatalf("%s, resealed: accepted, but re-encodes to other bytes", what)
		}
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			data := bytes.Clone(good)
			data[i] ^= 1 << bit
			try(fmt.Sprintf("byte %d bit %d", i, bit), data)
		}
	}
	for n := range good {
		try(fmt.Sprintf("prefix of %d", n), good[:n])
	}
	if st := cache.Stats(); st.Errors != int64(damaged) || st.Misses != int64(damaged) || st.Hits() != 0 {
		t.Errorf("stats = %+v, want %d errors, as many misses and no hit", st, damaged)
	}
	t.Logf("%d B entry: %d damaged forms", len(good), damaged)
}

// TestEncodeOnlyReads encodes one shared result from several goroutines;
// under -race a codec that wrote through its pointers while encoding fails.
func TestEncodeOnlyReads(t *testing.T) {
	res, _ := filled(t, "", false)
	want := encodeEntry(keyA, res)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !bytes.Equal(encodeEntry(keyA, res), want) {
				t.Error("concurrent encodes of one result differ")
			}
		}()
	}
	wg.Wait()
}

// TestDecoderNeverTrustsALength plants 2^40 at every byte of a checksummed
// entry, each length and count among them. Where it lands on a plain
// integer it is a value like any other; nowhere may it become an allocation.
func TestDecoderNeverTrustsALength(t *testing.T) {
	good := encodeEntry(keyA, sampleResult(1))
	huge := binary.AppendUvarint(nil, 1<<40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for at := len(entryMagic); at < len(good)-crc32.Size; at++ {
		data := append(bytes.Clone(good[:at]), huge...)
		data = seal(append(data, good[at+1:]...))
		if got, err := decodeEntry(data, keyA); err == nil && !bytes.Equal(encodeEntry(keyA, got), data) {
			t.Errorf("2^40 at byte %d: accepted, but re-encodes to other bytes", at)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("refusing %d entries allocated %d B", len(good), grew)
	}
}

// FuzzDecodeEntry feeds decodeEntry arbitrary bytes, as found and with the
// checksum made good (so the walk behind it is reached): no panic, no
// allocation out of proportion to the input, and whatever is accepted
// re-encodes to exactly the input.
func FuzzDecodeEntry(f *testing.F) {
	full, _ := filled(f, "", false)
	f.Add(encodeEntry(keyA, full))
	f.Add(encodeEntry(keyA, sampleResult(1)))
	f.Add(encodeEntry(keyA, &interp.Result{}))
	f.Add(entryWithSchema(1, keyA, sampleResult(2)))
	for _, res := range realResults(f) {
		f.Add(encodeEntry(keyA, res))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sealed := seal(data)
		resA, errA := decodeEntry(data, keyA)
		resB, errB := decodeEntry(sealed, keyA)
		runtime.ReadMemStats(&after)
		// No element is smaller in the entry than a byte or larger in
		// memory than a SampleStat, so a decoder that only allocates what
		// the remaining input can fill stays under this.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(data)); grew > limit {
			t.Fatalf("decoding %d B allocated %d B (limit %d)", len(data), grew, limit)
		}
		if errA == nil && !bytes.Equal(encodeEntry(keyA, resA), data) {
			t.Fatal("accepted input re-encodes to other bytes")
		}
		if errB == nil && !bytes.Equal(encodeEntry(keyA, resB), sealed) {
			t.Fatal("accepted resealed input re-encodes to other bytes")
		}
	})
}
