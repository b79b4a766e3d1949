package core

import (
	"fmt"
	"math"
)

// One Controller runs every section; what differs between controller kinds
// is only the selector it consults at four points of a sampling round.
// Round-robin is the paper's: every policy, in declaration order. UCB
// (ucb.go) samples by confidence bound and ends a round once no unsampled
// policy could still win. Every runtime — the simulated machine, the
// wall-clock dynfb runtime, the serving tier — picks a kind with a
// configuration string and nothing else changes.

// Controller kinds accepted by NewCtl. The empty string selects the
// paper's round-robin sampling.
const (
	KindRoundRobin = "roundrobin"
	KindUCB        = "ucb"
)

// ValidKind reports whether kind names a known controller kind (the empty
// string selects the default).
func ValidKind(kind string) bool {
	switch kind {
	case "", KindRoundRobin, KindUCB:
		return true
	}
	return false
}

// NormalizeKind resolves the empty kind to KindRoundRobin, for cache keys
// and persisted state that must not distinguish "" from the default.
func NormalizeKind(kind string) string {
	if kind == "" {
		return KindRoundRobin
	}
	return kind
}

// selector supplies the decisions of a sampling round that differ between
// controller kinds. The controller calls it between intervals; policies
// already sampled this round are c.order, their overheads c.roundOver.
type selector interface {
	// first opens a round and returns the policy to sample first.
	first(c *Controller) int
	// next returns the policy to sample after the one just measured; ok is
	// false when the round is over.
	next(c *Controller) (policy int, ok bool)
	// winner returns the policy the production phase runs when next ended
	// the round.
	winner(c *Controller) int
	// observe takes in the overhead one sampling interval measured.
	observe(policy int, over float64)
	// seed takes in per-policy aggregates persisted by a previous process.
	seed(stats []PolicyStats)
}

// NewCtl validates cfg, applies defaults, and returns a controller of the
// given kind. The empty kind defaults to the paper's round-robin sampling.
func NewCtl(kind string, cfg Config) (*Controller, error) {
	if !ValidKind(kind) {
		return nil, fmt.Errorf("core: unknown controller kind %q (want %q or %q)", kind, KindRoundRobin, KindUCB)
	}
	n := len(cfg.Policies)
	if n == 0 {
		return nil, fmt.Errorf("core: config needs at least one policy")
	}
	if cfg.TargetSampling <= 0 {
		cfg.TargetSampling = DefaultTargetSampling
	}
	if cfg.TargetProduction <= 0 {
		cfg.TargetProduction = DefaultTargetProduction
	}
	c := &Controller{
		cfg:       cfg,
		sel:       roundRobin{},
		order:     make([]int, 0, n),
		roundOver: make([]float64, n),
		stats:     make([]PolicyStats, n),
	}
	if kind == KindUCB {
		c.sel = &ucb{armN: make([]float64, n), armSum: make([]float64, n)}
	}
	return c, nil
}

// roundRobin is the paper's selector: each round samples every policy once,
// in declaration order, and the lowest measured overhead wins.
type roundRobin struct{}

// first is policy 0 — or, with OrderByHistory, the previous winner (§4.5).
func (roundRobin) first(c *Controller) int {
	if c.cfg.OrderByHistory && c.lastWinnerOK {
		return c.lastWinner
	}
	return 0
}

func (roundRobin) next(c *Controller) (int, bool) {
	for p, o := range c.roundOver {
		if math.IsNaN(o) {
			return p, true
		}
	}
	return 0, false
}

func (roundRobin) winner(c *Controller) int { return c.bestSampled() }

func (roundRobin) observe(int, float64) {}

func (roundRobin) seed([]PolicyStats) {}
