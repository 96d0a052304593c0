package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"

	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
)

// verifier checks responses off the clock against the library: every
// returned solution must be feasible and cost what it claims; an exact
// solver's cost must equal a reference optimum computed by a different
// exact solver; a certified answer must lie within factor × its LP bound.
type verifier struct {
	rp       *replayer // untimed
	problems map[string]*refProblem
	chains   []*chainRef
	sample   *rand.Rand
	sampleP  float64
}

// refProblem is a verifier-side derivation with its lazily computed
// reference optima, keyed by the solver that produced them.
type refProblem struct {
	p   *secureview.Problem
	v   secureview.Variant
	err error
	opt map[string]float64
}

// chainRef is an edit chain as the verifier sees it: its problem, and the
// costs of the step it checked last, from which it replays the chain's
// edits up to the next step it checks.
type chainRef struct {
	p     *secureview.Problem
	ch    *chain
	costs []float64
	at    int // edits applied to costs
}

// costsAt returns the chain's costs once edits 0..n are applied.
func (c *chainRef) costsAt(n int) privacy.Costs {
	if c.costs == nil || n < c.at-1 {
		c.costs, c.at = append([]float64(nil), c.ch.costs0...), 0
	}
	for ; c.at <= n; c.at++ {
		ed := c.ch.edits[c.at]
		c.costs[ed.attr] = editCost(ed.level)
	}
	costs := make(privacy.Costs, len(c.ch.attrs))
	for i, a := range c.ch.attrs {
		costs[a] = c.costs[i]
	}
	return costs
}

// exactSolvers are the registry's exact solvers; the reference for an
// answer from one of them comes from another.
var exactSolvers = map[string]bool{"exact": true, "engine": true, "bb": true}

func newVerifier(seed int64, samplePerStep float64) *verifier {
	return &verifier{
		rp:       &replayer{sess: solve.NewSession()},
		problems: map[string]*refProblem{},
		sample:   rand.New(rand.NewSource(seed ^ 0x7e51f)),
		sampleP:  samplePerStep,
	}
}

func (vf *verifier) problem(j *job) *refProblem {
	rp := vf.problems[j.key]
	if rp == nil {
		rp = &refProblem{opt: map[string]float64{}}
		rp.p, rp.v, rp.err = vf.rp.resolve(0, &j.req)
		vf.problems[j.key] = rp
	}
	return rp
}

// reference returns the optimum of p computed by an exact solver other
// than the one that answered, or ok=false where no exact solver other than
// the answering one accepts p within its budget (the mega classes).
func reference(p *secureview.Problem, v secureview.Variant, answered string, cache map[string]float64) (float64, bool) {
	if len(p.UsefulAttributes(v)) > 24 {
		return 0, false
	}
	for _, name := range []string{"exact", "engine", "bb"} {
		if name == answered {
			continue
		}
		if opt, ok := cache[name]; ok {
			return opt, true
		}
		sv, _ := solve.Get(name)
		if sv.Supports(p, v) != nil {
			continue
		}
		res, err := solve.Solve(context.Background(), name, p, solve.Options{Variant: v})
		if err != nil {
			continue
		}
		cache[name] = res.Cost
		return res.Cost, true
	}
	return 0, false
}

const eps = 1e-6

// checkAnswer verifies one solve response against the problem it answers
// and returns the cost ratio (cost over reference optimum, or over the LP
// bound where no optimum is known; 0 when neither exists).
func checkAnswer(p *secureview.Problem, v secureview.Variant, r *server.SolveResponse, opt float64, haveOpt bool) (float64, error) {
	if r.Status == "partial" || r.Partial {
		return 0, fmt.Errorf("partial answer")
	}
	sol := secureview.Solution{Hidden: relation.NewNameSet(r.Hidden...), Privatized: relation.NewNameSet(r.Privatized...)}
	if !p.Feasible(sol, v) {
		return 0, fmt.Errorf("%s returned an infeasible solution hide=%v privatize=%v", r.Solver, r.Hidden, r.Privatized)
	}
	if c := p.Cost(sol); math.Abs(c-r.Cost) > eps*math.Max(1, c) {
		return 0, fmt.Errorf("%s claims cost %g, solution costs %g", r.Solver, r.Cost, c)
	}
	exact := exactSolvers[r.Solver] || r.Optimal
	if haveOpt {
		if r.Cost < opt-eps*math.Max(1, opt) {
			return 0, fmt.Errorf("%s cost %g below the reference optimum %g", r.Solver, r.Cost, opt)
		}
		if exact && r.Cost > opt+eps*math.Max(1, opt) {
			return 0, fmt.Errorf("%s claims optimality at cost %g, reference optimum %g", r.Solver, r.Cost, opt)
		}
		if r.Bound.LP > opt+eps*math.Max(1, opt) {
			return 0, fmt.Errorf("%s LP bound %g exceeds the optimum %g", r.Solver, r.Bound.LP, opt)
		}
	}
	if f := r.Bound.Factor; f > 0 {
		switch {
		case r.Bound.LP > 0 && r.Cost > f*r.Bound.LP*(1+eps)+eps:
			return 0, fmt.Errorf("%s cost %g exceeds factor %g × LP %g", r.Solver, r.Cost, f, r.Bound.LP)
		case r.Bound.LP == 0 && haveOpt && r.Cost > f*opt*(1+eps)+eps:
			return 0, fmt.Errorf("%s cost %g exceeds factor %g × OPT %g", r.Solver, r.Cost, f, opt)
		}
	}
	switch {
	case haveOpt && opt > 0:
		return r.Cost / opt, nil
	case haveOpt:
		return 1, nil
	case r.Bound.LP > 0:
		return r.Cost / r.Bound.LP, nil
	}
	return 0, nil
}

// verdict is the verifier's finding on one outcome.
type verdict struct {
	ok     bool // 2xx and every answer checked correct
	wrong  bool // an answer failed a check (counts in failed as well)
	ratios []float64
	why    string
}

// check verifies one outcome of a generated (non-edit) request.
func (vf *verifier) check(o *outcome) verdict {
	if o.err != nil {
		return verdict{why: o.err.Error()}
	}
	if o.code != http.StatusOK {
		return verdict{why: fmt.Sprintf("HTTP %d: %.200s", o.code, o.resp)}
	}
	var answers []*server.SolveResponse
	if o.req.batch {
		var b server.BatchResponse
		if err := json.Unmarshal(o.resp, &b); err != nil || len(b.Results) != len(o.req.jobs) {
			return verdict{wrong: true, why: fmt.Sprintf("malformed batch response: %v", err)}
		}
		for _, r := range b.Results {
			if r.Code != http.StatusOK || r.Response == nil {
				return verdict{why: fmt.Sprintf("batch job HTTP %d: %s", r.Code, r.Error)}
			}
			answers = append(answers, r.Response)
		}
	} else {
		var r server.SolveResponse
		if err := json.Unmarshal(o.resp, &r); err != nil {
			return verdict{wrong: true, why: fmt.Sprintf("malformed response: %v", err)}
		}
		answers = append(answers, &r)
	}
	var vd verdict
	for i, r := range answers {
		j := &o.req.jobs[i]
		rp := vf.problem(j)
		if rp.err != nil {
			return verdict{wrong: true, why: fmt.Sprintf("server answered %s, which the library cannot derive: %v", j.key, rp.err)}
		}
		// A portfolio answer names its winning inner solver, which the
		// reference must not be.
		opt, have := reference(rp.p, rp.v, strings.TrimPrefix(r.Solver, "portfolio/"), rp.opt)
		ratio, err := checkAnswer(rp.p, rp.v, r, opt, have)
		if err != nil {
			return verdict{wrong: true, why: j.key + ": " + err.Error()}
		}
		if ratio > 0 {
			vd.ratios = append(vd.ratios, ratio)
		}
	}
	vd.ok = true
	return vd
}

// checkStep verifies an edit-chain step from its record: feasibility and
// claimed cost on every step, and the reference optimum on a seeded sample
// of steps.
func (vf *verifier) checkStep(o *outcome) verdict {
	if x := o.extra; x != nil && x.why != "" {
		return verdict{wrong: x.wrong, why: x.why}
	}
	rec := o.step
	ref := vf.chains[rec.chain]
	r := &server.SolveResponse{Solver: "engine", Cost: rec.cost, Optimal: rec.optimal, Partial: rec.partial,
		Bound: server.BoundSpec{LP: rec.lp, Factor: rec.factor}}
	for a, name := range ref.ch.attrs {
		if rec.hidden&(1<<a) != 0 {
			r.Hidden = append(r.Hidden, name)
		}
	}
	if o.extra != nil {
		r.Privatized = o.extra.privatized
	}
	p := &secureview.Problem{Modules: ref.p.Modules, Costs: ref.costsAt(int(rec.step))}
	opt, have := 0.0, false
	if vf.sample.Float64() < vf.sampleP {
		opt, have = reference(p, secureview.Set, "engine", map[string]float64{})
	}
	ratio, err := checkAnswer(p, secureview.Set, r, opt, have)
	if err != nil {
		return verdict{wrong: true, why: fmt.Sprintf("chain %d step %d: %v", rec.chain, rec.step, err)}
	}
	vd := verdict{ok: true}
	if have {
		vd.ratios = []float64{ratio}
	}
	return vd
}
