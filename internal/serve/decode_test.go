package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// dfperfBody is a /run body as dfperf's serve workload sends it:
// json.Marshal of a map, so sorted keys and four integer params.
const dfperfBody = `{"app":"barneshut","params":{"listlen":8,"nbodies":24,"npasses":1,"serialwork":2345},"policy":"dynamic","procs":4}`

// TestDecodeRunRequestCanonical lists bodies the reflection-free decoder
// must take itself and bodies it must leave to encoding/json, and holds
// every one it takes to encoding/json's value.
func TestDecodeRunRequestCanonical(t *testing.T) {
	for _, c := range []struct {
		body string
		fast bool
	}{
		{dfperfBody, true},
		{hitBody, true},
		{`{}`, true},
		{" \t\r\n{ \"app\" : \"water\" , \"params\" : { } }\n", true},
		{`{"section":"sort","iters":-0,"params":{"shuffled":true,"hot":false,"n":-7}}`, true},
		{`{"app":"water","perturb":"crossover","procs":9223372036854775807}`, true},
		{`{"app":"water","params":{"nmol":9007199254740993}}`, true}, // rounds as encoding/json rounds it
		{`{"app":"w\u0061ter"}`, false},                              // escape
		{`{"App":"water"}`, false},                                   // case-folded key
		{`{"app":"water","app":"string"}`, false},                    // duplicate key
		{`{"app":"water","params":{"nmol":1,"nmol":2}}`, false},      // duplicate param
		{`{"app":null}`, false},
		{`{"app":"water","params":null}`, false},
		{`{"app":"water","params":{"nmol":1.5}}`, false},
		{`{"app":"water","params":{"nmol":1e3}}`, false},
		{`{"app":"water","params":{"nmol":012}}`, false},
		{`{"app":"water","params":{"nmol":"12"}}`, false},
		{`{"app":"water","procs":9223372036854775808}`, false}, // overflows int
		{`{"app":"water","schedule":{"changes":[]}}`, false},
		{`{"app":"water","extra":1}`, false},
		{`{"app":"water"} x`, false},
		{`{"app":"water"}}`, false},
		{`{"app":"water",}`, false},
		{`{"app":"wäter"}`, false},
		{`null`, false},
		{``, false},
	} {
		var got runRequest
		if fast := decodeRunRequest([]byte(c.body), &got); fast != c.fast {
			t.Errorf("%q: decoded without reflection %v, want %v", c.body, fast, c.fast)
		} else if fast {
			want, err := decodeRunRequestJSON([]byte(c.body), nil)
			if err != nil {
				t.Errorf("%q: taken, but encoding/json refuses it: %v", c.body, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%q: decoded %+v, encoding/json %+v", c.body, got, want)
			}
		}
	}
}

// FuzzRunRequest holds the reflection-free /run decoder to encoding/json:
// on every body it either declines or decodes what encoding/json decodes.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		dfperfBody, hitBody, `{}`, `{"section":"sort","iters":5000,"params":{"shuffled":true}}`,
		`{"app":"water","params":{"nmol":-0,"nsteps":9007199254740993}}`,
		`{"app":"string","procs":2} `, `{"app":"water","perturb":"crossover"}`,
		`{"App":"water"}`, `{"app":"water","params":{"nmol":1e3}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got runRequest
		if !decodeRunRequest(body, &got) {
			return
		}
		want, err := decodeRunRequestJSON(body, nil)
		if err != nil {
			t.Fatalf("%q: taken, but encoding/json refuses it: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v, encoding/json %#v", body, got, want)
		}
	})
}

// TestOversizedRunBody: a body past the 1 MiB limit is refused with
// net/http's error, whether the limit cuts the object or the white space
// after it.
func TestOversizedRunBody(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, c := range []struct {
		name, body, msg string
	}{
		{"long string", `{"app":"` + strings.Repeat("w", 1<<20) + `"}`,
			"bad request body: http: request body too large"},
		{"long white space", `{"app":"water"}` + strings.Repeat(" ", 1<<20),
			"bad request body: data after the request object"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(c.body)))
		var out map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusBadRequest || out["error"] != c.msg {
			t.Errorf("%s: status %d: %s, want 400 %q", c.name, rec.Code, rec.Body, c.msg)
		}
	}
}

// BenchmarkDecodeRunRequest decodes dfperf's request body without
// reflection and, for comparison, through encoding/json, the path every
// body the fast decoder declines takes.
func BenchmarkDecodeRunRequest(b *testing.B) {
	body := []byte(dfperfBody)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req runRequest
			if !decodeRunRequest(body, &req) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeRunRequestJSON(body, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
