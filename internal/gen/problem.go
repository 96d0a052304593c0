package gen

import (
	"fmt"
	"math/rand"

	"secureview/internal/privacy"
	"secureview/internal/secureview"
)

// ProblemConfig parameterizes abstract Secure-View instance generation —
// requirement-list instances with both constraint variants populated, no
// concrete module functionality behind them. These are the inputs the
// paper's optimization algorithms (section 4–5) consume directly, so they
// let the differential harness sweep solver space far faster than deriving
// from executable workflows.
type ProblemConfig struct {
	// Modules is the module count (default 5).
	Modules int
	// MaxInputs bounds each module's input arity; the arity is drawn from
	// [1, MaxInputs] (default 2).
	MaxInputs int
	// Outputs is each module's output count (default 1).
	Outputs int
	// Share caps how many modules consume one attribute (default 2).
	Share int
	// PublicFrac marks modules public with this probability; at least one
	// module always stays private.
	PublicFrac float64
	// MaxCost scales the uniform random costs in [1, MaxCost] (default 5).
	MaxCost float64
	// Singletons switches the requirement lists to the legacy
	// workload.RandomProblem shape: each private module offers "hide my
	// output(s)" or "hide any ONE input" (set variant: one singleton option
	// per input; cardinality variant: α=1 ∨ β=1). The default shape instead
	// demands ALL inputs or ALL outputs, which is strictly harder per
	// module; singleton instances have many more near-ties, which is what
	// E19's greedy-vs-LP scaling sweep measures.
	Singletons bool
}

func (c ProblemConfig) withDefaults() ProblemConfig {
	if c.Modules <= 0 {
		c.Modules = 5
	}
	if c.MaxInputs <= 0 {
		c.MaxInputs = 2
	}
	if c.Outputs <= 0 {
		c.Outputs = 1
	}
	if c.Share <= 0 {
		c.Share = 2
	}
	if c.MaxCost <= 1 {
		c.MaxCost = 5
	}
	return c
}

// Problem generates an abstract Secure-View instance for (cfg, seed): a
// chain with cross-links where module i consumes 1..MaxInputs attributes
// produced earlier (bounded by Share consumers each) and offers the
// requirement options "hide all my inputs", "hide all my outputs" and —
// with a coin flip — the mixed pair "hide one input and one output".
// Both the set and the cardinality lists encode the same options, so the
// two variants of every solver see the same instance. Identical arguments
// produce byte-identical instances (Problem.AppendBinary).
func Problem(cfg ProblemConfig, seed int64) *secureview.Problem {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	p := &secureview.Problem{Costs: privacy.Costs{}}

	type produced struct {
		name      string
		consumers int
	}
	pool := []produced{{name: "g0"}}
	p.Costs["g0"] = 1 + rng.Float64()*(cfg.MaxCost-1)
	nextSrc := 1

	anyPrivate := false
	for i := 0; i < cfg.Modules; i++ {
		k := 1 + rng.Intn(cfg.MaxInputs)
		var in []string
		// Draw k distinct producers with spare capacity, in random order.
		var eligible []int
		for pi := range pool {
			if pool[pi].consumers < cfg.Share {
				eligible = append(eligible, pi)
			}
		}
		for t := 0; t < len(eligible) && len(in) < k; t++ {
			j := t + rng.Intn(len(eligible)-t)
			eligible[t], eligible[j] = eligible[j], eligible[t]
			pool[eligible[t]].consumers++
			in = append(in, pool[eligible[t]].name)
		}
		if len(in) == 0 {
			src := fmt.Sprintf("g%d", nextSrc)
			nextSrc++
			p.Costs[src] = 1 + rng.Float64()*(cfg.MaxCost-1)
			pool = append(pool, produced{name: src, consumers: 1})
			in = append(in, src)
		}
		out := make([]string, cfg.Outputs)
		for j := range out {
			out[j] = fmt.Sprintf("d%d_%d", i, j)
			p.Costs[out[j]] = 1 + rng.Float64()*(cfg.MaxCost-1)
			pool = append(pool, produced{name: out[j]})
		}

		spec := secureview.ModuleSpec{
			Name:    fmt.Sprintf("m%d", i),
			Inputs:  in,
			Outputs: out,
		}
		public := rng.Float64() < cfg.PublicFrac
		if i == cfg.Modules-1 && !anyPrivate {
			public = false // at least one module must carry a requirement
		}
		if public {
			spec.Public = true
			spec.PrivatizeCost = 1 + rng.Float64()*(cfg.MaxCost-1)
		} else if cfg.Singletons {
			anyPrivate = true
			spec.SetList = []secureview.SetReq{{Out: append([]string(nil), out...)}}
			for _, a := range in {
				spec.SetList = append(spec.SetList, secureview.SetReq{In: []string{a}})
			}
			spec.CardList = []secureview.CardReq{{Alpha: 1}, {Beta: 1}}
		} else {
			anyPrivate = true
			spec.SetList = []secureview.SetReq{
				{In: append([]string(nil), in...)},
				{Out: append([]string(nil), out...)},
			}
			spec.CardList = []secureview.CardReq{
				{Alpha: len(in)},
				{Beta: len(out)},
			}
			if rng.Intn(2) == 1 {
				spec.SetList = append(spec.SetList,
					secureview.SetReq{In: in[:1], Out: out[:1]})
				spec.CardList = append(spec.CardList,
					secureview.CardReq{Alpha: 1, Beta: 1})
			}
		}
		p.Modules = append(p.Modules, spec)
	}
	return p
}

// ProblemClass is a named canonical abstract-instance configuration.
type ProblemClass struct {
	Name string
	Cfg  ProblemConfig
}

// ProblemClasses returns the canonical abstract-instance classes swept by
// the differential harness and the E22 scenario suite.
func ProblemClasses() []ProblemClass {
	return []ProblemClass{
		{"sparse", ProblemConfig{Modules: 5, MaxInputs: 1, Outputs: 1, Share: 1}},
		{"shared", ProblemConfig{Modules: 5, MaxInputs: 2, Outputs: 1, Share: 3}},
		{"wide", ProblemConfig{Modules: 4, MaxInputs: 3, Outputs: 2, Share: 2}},
		{"public-mix", ProblemConfig{Modules: 6, MaxInputs: 2, Outputs: 1, Share: 2, PublicFrac: 0.3}},
		{"singleton", ProblemConfig{Modules: 6, MaxInputs: 2, Outputs: 1, Share: 2, Singletons: true}},
	}
}

// MegaProblemClasses returns the mega-scale abstract-instance classes: all
// private, hundreds of modules, useful-attribute universes of k ≥ 40 —
// far beyond the 2^k exact tier, which exits with typed budget errors
// there. They exist to exercise the certified approximation tier and the
// portfolio meta-solver, and are deliberately kept out of ProblemClasses
// so the exhaustive sweeps (differential harness defaults, E22, fuzzing)
// stay exact-solver sized.
func MegaProblemClasses() []ProblemClass {
	return []ProblemClass{
		{"mega-sparse", ProblemConfig{Modules: 120, MaxInputs: 1, Outputs: 1, Share: 1}},
		{"mega-shared", ProblemConfig{Modules: 150, MaxInputs: 2, Outputs: 1, Share: 4}},
		{"mega-wide", ProblemConfig{Modules: 100, MaxInputs: 3, Outputs: 2, Share: 3}},
	}
}
