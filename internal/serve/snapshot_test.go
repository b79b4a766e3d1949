package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/dynfb"
	"repro/dynfb/store"
)

// TestSnapshotWireFormUnchanged pins the JSON a section snapshot has on the
// wire (/stats "sections", a native /run's "stats"): a fixed snapshot of
// three variants, one never sampled, rendered before and after its first
// production phase. testdata/snapshot.golden was written by the wire
// struct that mirrored dynfb.Snapshot field by field before the snapshot
// carried its own JSON tags; it is never regenerated.
func TestSnapshotWireFormUnchanged(t *testing.T) {
	snap := dynfb.Snapshot{
		Name:           "sort",
		Phase:          "production",
		Rounds:         7,
		Current:        "fine",
		WinnerOverhead: 0.0123456789,
		WarmStarted:    true,
		Switches:       3,
		Stats: []store.PolicyRecord{
			{Name: "coarse", TimesSampled: 7, TimesChosen: 2, MeanOverhead: 0.25, LastOverhead: 0.3125},
			{Name: "fine", TimesSampled: 6, TimesChosen: 5, MeanOverhead: 0.0123456789, LastOverhead: 1e-7},
			{Name: "never"},
		},
	}
	var got bytes.Buffer
	for _, winner := range []string{"", "fine"} {
		snap.Winner = winner
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, snap)
		got.Write(rec.Body.Bytes())
	}
	want, err := os.ReadFile("testdata/snapshot.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("snapshot wire form changed:\n got: %s\nwant: %s", got.Bytes(), want)
	}
}
