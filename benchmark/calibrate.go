package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// calibrateRuns runs each selected workload n times, one child process per
// run as the driver does, and prints how far the end-to-end metrics moved
// between runs of one commit.
func calibrateRuns(cfg config, n int, out string) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" || cfg.workload == "" {
		names = workloadNames()
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	var all []*runDoc
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmin\tmedian\tmax\tmax/min-1\tIQR/median\tfailed")
	for _, name := range names {
		var docs []*runDoc
		for i := 0; i < n; i++ {
			doc, err := childRun(self, cfg, name, cfg.seed+int64(i))
			if err != nil {
				return err
			}
			docs = append(docs, doc)
		}
		all = append(all, docs...)
		failed := 0
		for _, d := range docs {
			failed += d.Failed
		}
		for _, m := range endToEnd {
			vs := metricValues(docs, m.Name)
			sort.Float64s(vs)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.3f\t%.3f\t%d\n", name, m.Name,
				vs[0], median(vs), vs[len(vs)-1], vs[len(vs)-1]/vs[0]-1, spread(vs), failed)
		}
		tw.Flush()
	}
	if out != "" {
		return writeDocs(out, all)
	}
	return nil
}

// childRun executes one untraced run in a child process and parses the
// document it prints before the result line.
func childRun(self string, cfg config, workload string, seed int64) (*runDoc, error) {
	tmp, err := os.CreateTemp(cfg.workdir, "run-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-workdir", cfg.workdir, "-out", tmp.Name())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, bytes.TrimSpace(stderr.Bytes()))
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var f docFile
	if err := json.Unmarshal(data, &f); err != nil || len(f.Runs) != 1 {
		return nil, fmt.Errorf("%s seed %d: unreadable output document: %v", workload, seed, err)
	}
	return f.Runs[0], nil
}

func metricValues(docs []*runDoc, name string) []float64 {
	out := make([]float64, len(docs))
	for i, d := range docs {
		out[i] = d.Metrics[name].Value
	}
	return out
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method), which
// is what the driver uses.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median.
func spread(sorted []float64) float64 {
	if len(sorted) < 2 || median(sorted) == 0 {
		return 0
	}
	q1, q3 := quartiles(sorted)
	return (q3 - q1) / median(sorted)
}
