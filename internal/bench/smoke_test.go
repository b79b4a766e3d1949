package bench

import "testing"

// TestQuickSuiteSmoke runs every experiment and tier on a quick suite: each
// must pass its shape checks and render under its registry entry's ID and
// title.
func TestQuickSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow harness smoke test; run without -short")
	}
	s := NewSuite(SuiteConfig{Quick: true, Procs: []int{1, 4, 8}})
	for _, e := range append(Experiments(), Tiers()...) {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != e.ID || rep.Title != e.Title {
				t.Errorf("report is %q %q, registry entry %q %q", rep.ID, rep.Title, e.ID, e.Title)
			}
			for _, f := range rep.Failed() {
				t.Errorf("shape check failed: %s", f)
			}
		})
	}
}
