package experiment

import (
	"fmt"
	"sort"

	"mpdp/internal/core"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// PolicyParams carries the tunables of the adaptive/duplicating policies.
type PolicyParams struct {
	FlowletTimeout sim.Duration
	DupThreshold   float64
	DupBudget      float64
	DupK           int
	ClassAware     bool

	// Deadline-aware policy knobs. Deadline is the fallback per-packet
	// budget, DeadlineMargin the jitter multiplier. DupBudgetBps /
	// DupBudgetBurst configure the duplication-bytes token bucket: both
	// zero takes the policy default (1 MiB/s, 64 KiB burst); a NEGATIVE
	// DupBudgetBps means budget zero — duplication disabled outright, the
	// degradation case the P3 property test pins down.
	Deadline       sim.Duration
	DeadlineMargin float64
	DupBudgetBps   float64
	DupBudgetBurst float64
}

// policyBuilders maps CLI/table names to constructors.
var policyBuilders = map[string]func(rng *xrand.Rand, p PolicyParams) core.Policy{
	"single": func(rng *xrand.Rand, p PolicyParams) core.Policy { return &core.SinglePath{} },
	"rss":    func(rng *xrand.Rand, p PolicyParams) core.Policy { return &core.RSSHash{} },
	"rr":     func(rng *xrand.Rand, p PolicyParams) core.Policy { return &core.RoundRobin{} },
	"random": func(rng *xrand.Rand, p PolicyParams) core.Policy { return &core.RandomPick{Rng: rng} },
	"jsq":    func(rng *xrand.Rand, p PolicyParams) core.Policy { return &core.JSQ{} },
	"po2":    func(rng *xrand.Rand, p PolicyParams) core.Policy { return &core.PowerOfTwo{Rng: rng} },
	"flowlet": func(rng *xrand.Rand, p PolicyParams) core.Policy {
		t := p.FlowletTimeout
		if t == 0 {
			t = 500 * sim.Microsecond
		}
		return core.NewFlowlet(t)
	},
	"letflow": func(rng *xrand.Rand, p PolicyParams) core.Policy {
		t := p.FlowletTimeout
		if t == 0 {
			t = 500 * sim.Microsecond
		}
		return core.NewLetFlow(t, rng)
	},
	"least-lat": func(rng *xrand.Rand, p PolicyParams) core.Policy { return &core.LeastLatency{} },
	"wrr":       func(rng *xrand.Rand, p PolicyParams) core.Policy { return &core.WeightedRR{} },
	"dup-all": func(rng *xrand.Rand, p PolicyParams) core.Policy {
		k := p.DupK
		if k == 0 {
			k = 2
		}
		return &core.Redundant{K: k}
	},
	"mpdp": func(rng *xrand.Rand, p PolicyParams) core.Policy {
		cfg := core.DefaultMPDPConfig()
		if p.FlowletTimeout != 0 {
			cfg.FlowletTimeout = p.FlowletTimeout
		}
		if p.DupThreshold != 0 {
			cfg.DupThreshold = p.DupThreshold
		}
		if p.DupBudget != 0 {
			cfg.DupBudget = p.DupBudget
		}
		cfg.ClassAware = p.ClassAware
		return core.NewMPDP(cfg)
	},
	"mpdp-nodup": func(rng *xrand.Rand, p PolicyParams) core.Policy {
		cfg := core.DefaultMPDPConfig()
		if p.FlowletTimeout != 0 {
			cfg.FlowletTimeout = p.FlowletTimeout
		}
		cfg.DupBudget = 0
		return core.NewMPDP(cfg)
	},
	"deadline": func(rng *xrand.Rand, p PolicyParams) core.Policy {
		return core.NewDeadlineAware(deadlineConfig(p))
	},
	"deadline-nodup": func(rng *xrand.Rand, p PolicyParams) core.Policy {
		// The budget-free twin: identical best-single-path choice, never a
		// duplicate. P3 asserts "deadline" with budget zero is byte-identical
		// to this.
		cfg := deadlineConfig(p)
		cfg.Budget = nil
		return core.NewDeadlineAware(cfg)
	},
}

// deadlineConfig maps PolicyParams onto the DeadlineAware configuration.
func deadlineConfig(p PolicyParams) core.DeadlineAwareConfig {
	cfg := core.DefaultDeadlineAwareConfig()
	if p.Deadline != 0 {
		cfg.Deadline = p.Deadline
	}
	if p.DeadlineMargin != 0 {
		cfg.Margin = p.DeadlineMargin
	}
	switch {
	case p.DupBudgetBps < 0:
		cfg.Budget = core.NewDupBudget(0, 0) // deny-all: budget zero
	case p.DupBudgetBps != 0 || p.DupBudgetBurst != 0:
		cfg.Budget = core.NewDupBudget(p.DupBudgetBps, p.DupBudgetBurst)
	}
	return cfg
}

// NewPolicy builds a policy by name. The DupBudget/FlowletTimeout fields of
// params apply to the adaptive policies; others ignore them.
func NewPolicy(name string, rng *xrand.Rand, params PolicyParams) (core.Policy, error) {
	b, ok := policyBuilders[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown policy %q (have %v)", name, PolicyNames())
	}
	return b(rng, params), nil
}

// PolicyNames lists the registered policy names, sorted.
func PolicyNames() []string {
	out := make([]string, 0, len(policyBuilders))
	for n := range policyBuilders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
