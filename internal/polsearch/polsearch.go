// Package polsearch selects a representative subset of a generated policy
// space from offline measurements.
//
// The policy generator (internal/obl/polgen) produces more versions than an
// online controller should carry: every version in the space costs code
// size and — for the paper's round-robin controller — one sampling interval
// per round. This package takes the offline benchmark matrix (every
// candidate policy run on every workload), clusters policies whose
// performance signatures are indistinguishable, and greedily picks at most
// k representatives that minimize the worst-case regret: how much slower
// the best representative is than the best candidate overall, on the
// workload where the gap is largest. The selection is deterministic (ties
// break toward earlier candidates) and reports the measured regret, so the
// prune is an auditable claim, not a heuristic hope.
package polsearch

import (
	"fmt"
	"math"
)

// Point is one candidate policy with its measured performance signature:
// the execution time of each workload under that policy, in a fixed
// workload order shared by every point.
type Point struct {
	Name  string    `json:"name"`
	Times []float64 `json:"times"`
}

// Config parameterizes the search.
type Config struct {
	// MaxRepresentatives bounds the selected subset. Default 5.
	MaxRepresentatives int
}

// clusterEpsilon is the relative slowdown within which two policies'
// signatures count as the same behaviour for clustering.
const clusterEpsilon = 0.02

// Cluster groups candidates with indistinguishable signatures. Exemplar is
// the earliest member, whose signature anchored the cluster.
type Cluster struct {
	Exemplar string   `json:"exemplar"`
	Members  []string `json:"members"`
}

// WorkloadRegret is the per-workload view of the selection quality.
type WorkloadRegret struct {
	Workload string `json:"workload"`
	// Best names the fastest candidate overall; BestTime is its time.
	Best     string  `json:"best"`
	BestTime float64 `json:"best_time"`
	// Chosen names the fastest selected representative; its relative
	// slowdown over Best is Regret (0 means the winner was kept).
	Chosen     string  `json:"chosen"`
	ChosenTime float64 `json:"chosen_time"`
	Regret     float64 `json:"regret"`
}

// Result is the outcome of a search.
type Result struct {
	Workloads       []string         `json:"workloads"`
	Candidates      int              `json:"candidates"`
	Clusters        []Cluster        `json:"clusters"`
	Representatives []string         `json:"representatives"`
	Pruned          int              `json:"pruned"`
	Regret          float64          `json:"regret"`
	PerWorkload     []WorkloadRegret `json:"per_workload"`
}

// Search selects at most cfg.MaxRepresentatives policies out of points.
// Every point must carry one positive time per workload.
func Search(workloads []string, points []Point, cfg Config) (*Result, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("polsearch: no workloads")
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("polsearch: no candidate policies")
	}
	if cfg.MaxRepresentatives <= 0 {
		cfg.MaxRepresentatives = 5
	}
	seen := map[string]bool{}
	for _, p := range points {
		if len(p.Times) != len(workloads) {
			return nil, fmt.Errorf("polsearch: policy %s has %d times for %d workloads", p.Name, len(p.Times), len(workloads))
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("polsearch: duplicate policy %s", p.Name)
		}
		seen[p.Name] = true
		for w, t := range p.Times {
			if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return nil, fmt.Errorf("polsearch: policy %s has non-positive time %v on %s", p.Name, t, workloads[w])
			}
		}
	}

	// Per-workload minima normalize signatures and anchor regret.
	minTime := make([]float64, len(workloads))
	minIdx := make([]int, len(workloads))
	for w := range workloads {
		minTime[w] = math.Inf(1)
		for i, p := range points {
			if p.Times[w] < minTime[w] {
				minTime[w] = p.Times[w]
				minIdx[w] = i
			}
		}
	}

	// Cluster by signature: a candidate joins the first cluster whose
	// exemplar it matches within clusterEpsilon on every workload.
	var clusters []Cluster
	exemplars := []int{}
	for i, p := range points {
		placed := false
		for ci, ei := range exemplars {
			if sameSignature(points[ei].Times, p.Times) {
				clusters[ci].Members = append(clusters[ci].Members, p.Name)
				placed = true
				break
			}
		}
		if !placed {
			exemplars = append(exemplars, i)
			clusters = append(clusters, Cluster{Exemplar: p.Name, Members: []string{p.Name}})
		}
	}

	// Greedy selection: repeatedly add the candidate that most reduces the
	// worst-case regret, stopping at the budget or at zero regret. The
	// first additions are necessarily per-workload winners (each drives its
	// workload's regret to zero), so whenever the budget covers the number
	// of distinct winners the measured regret is exactly zero.
	selected := []int{}
	inSet := make([]bool, len(points))
	regret := math.Inf(1)
	for len(selected) < cfg.MaxRepresentatives && regret > 0 {
		bestCand, bestRegret := -1, math.Inf(1)
		for i := range points {
			if inSet[i] {
				continue
			}
			inSet[i] = true
			r := maxRegret(points, selected, i, minTime)
			inSet[i] = false
			if r < bestRegret {
				bestRegret = r
				bestCand = i
			}
		}
		if bestCand < 0 || bestRegret >= regret {
			break
		}
		selected = append(selected, bestCand)
		inSet[bestCand] = true
		regret = bestRegret
	}

	res := &Result{
		Workloads:  append([]string(nil), workloads...),
		Candidates: len(points),
		Clusters:   clusters,
		Pruned:     len(points) - len(selected),
		Regret:     regret,
	}
	for _, i := range selected {
		res.Representatives = append(res.Representatives, points[i].Name)
	}
	for w, name := range workloads {
		chosen, chosenTime := -1, math.Inf(1)
		for _, i := range selected {
			if points[i].Times[w] < chosenTime {
				chosenTime = points[i].Times[w]
				chosen = i
			}
		}
		res.PerWorkload = append(res.PerWorkload, WorkloadRegret{
			Workload: name,
			Best:     points[minIdx[w]].Name, BestTime: minTime[w],
			Chosen: points[chosen].Name, ChosenTime: chosenTime,
			Regret: chosenTime/minTime[w] - 1,
		})
	}
	return res, nil
}

// sameSignature reports whether two time vectors are within clusterEpsilon
// relative distance on every workload.
func sameSignature(a, b []float64) bool {
	for w := range a {
		lo, hi := a[w], b[w]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi/lo-1 > clusterEpsilon {
			return false
		}
	}
	return true
}

// maxRegret computes the worst-case relative slowdown of the selection
// (selected plus the extra candidate) against the per-workload minima.
func maxRegret(points []Point, selected []int, extra int, minTime []float64) float64 {
	worst := 0.0
	for w := range minTime {
		best := points[extra].Times[w]
		for _, i := range selected {
			if points[i].Times[w] < best {
				best = points[i].Times[w]
			}
		}
		if r := best/minTime[w] - 1; r > worst {
			worst = r
		}
	}
	return worst
}
