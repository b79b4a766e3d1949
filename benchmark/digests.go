package main

import (
	_ "embed"
	"encoding/json"
	"os"
	"path/filepath"
)

// The committed digests of every sim-* cell's reference result at the
// default seed. A cell whose digest has moved is counted in the per-layer
// metric interp.digest_drift_cells, never as a failure: a change that
// deliberately alters simulated behaviour should be visible, not mis-scored
// (correctness is the VM agreeing with the reference engine, checked on
// every op).
//
//go:embed testdata/digests.json
var digestsJSON []byte

func loadDigests() (map[string]string, error) {
	out := map[string]string{}
	err := json.Unmarshal(digestsJSON, &out)
	return out, err
}

// writeDigests regenerates testdata/digests.json (run from benchmark/).
func writeDigests(cfg config) error {
	all := map[string]string{}
	for _, name := range []string{"sim-compute", "sim-sync"} {
		w, err := simSetup(name, cfg)
		if err != nil {
			return err
		}
		for k, v := range w.digests() {
			all[k] = v
		}
		w.close()
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("testdata", "digests.json"), append(data, '\n'), 0o644)
}
