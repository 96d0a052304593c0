package secureview

import (
	"fmt"
	"sort"

	"secureview/internal/module"
	"secureview/internal/privacy"
	"secureview/internal/relation"
	"secureview/internal/workflow"
)

// DeriveOptions configures the assembly of a Secure-View instance from a
// concrete workflow.
type DeriveOptions struct {
	// Gamma is the default privacy requirement for every private module.
	Gamma uint64
	// GammaPerModule overrides Gamma for named modules. The paper notes
	// (below Definition 5) that all results carry over to per-module
	// requirements Γi.
	GammaPerModule map[string]uint64
	// Costs assigns attribute hiding penalties.
	Costs privacy.Costs
	// PrivatizeCosts assigns c(m) to public modules.
	PrivatizeCosts map[string]float64
	// Recorded, when non-nil, derives each module's requirement lists from
	// the projection of this provenance relation instead of the module's
	// full input domain. The paper's relation R is "the set of workflow
	// executions that have been run" (section 1), so safety over the
	// recorded executions is the faithful reading for partial logs; note a
	// view derived from a partial log is only guaranteed for that log.
	Recorded *relation.Relation
}

func (o DeriveOptions) gammaFor(name string) uint64 {
	if g, ok := o.GammaPerModule[name]; ok {
		return g
	}
	return o.Gamma
}

// moduleView returns the standalone view of m under the options: the full
// functionality by default, or the projection of the recorded relation.
func (o DeriveOptions) moduleView(w *workflow.Workflow, m *module.Module) (privacy.ModuleView, error) {
	if o.Recorded == nil {
		return privacy.NewModuleView(m), nil
	}
	proj, err := o.Recorded.Project(m.AttrNames())
	if err != nil {
		return privacy.ModuleView{}, fmt.Errorf("secureview: projecting recorded relation for %s: %w", m.Name(), err)
	}
	return privacy.ModuleView{Rel: proj, Inputs: m.InputNames(), Outputs: m.OutputNames()}, nil
}

// Derive builds a Secure-View instance (set-constraints variant) under the
// options. It generalizes DeriveSet with per-module Γ and partial-log
// derivation. The result is deterministic: modules keep workflow order,
// requirement lists keep the engine's enumeration order, and each
// requirement's In and Out lists are sorted, so two derivations of one
// workflow encode to identical bytes.
func Derive(w *workflow.Workflow, opts DeriveOptions) (*Problem, error) {
	if opts.Gamma == 0 && len(opts.GammaPerModule) == 0 {
		return nil, fmt.Errorf("secureview: Derive needs a privacy requirement")
	}
	p := &Problem{Costs: opts.Costs}
	mods := w.Modules()
	specs := make([]ModuleSpec, len(mods))
	for i, m := range mods {
		spec := ModuleSpec{
			Name:    m.Name(),
			Inputs:  m.InputNames(),
			Outputs: m.OutputNames(),
		}
		if m.Visibility() == module.Public {
			spec.Public = true
			spec.PrivatizeCost = opts.PrivatizeCosts[m.Name()]
			specs[i] = spec
			continue
		}
		gamma := opts.gammaFor(m.Name())
		if gamma == 0 {
			return nil, fmt.Errorf("secureview: module %s has no privacy requirement", m.Name())
		}
		mv, err := opts.moduleView(w, m)
		if err != nil {
			return nil, err
		}
		minimal, err := mv.MinimalSafeHiddenSets(gamma)
		if err != nil {
			return nil, fmt.Errorf("secureview: module %s: %w", m.Name(), err)
		}
		if len(minimal) == 0 {
			return nil, fmt.Errorf("secureview: module %s has no safe subset for Γ=%d: %w", m.Name(), gamma, ErrInfeasible)
		}
		in := relation.NewNameSet(spec.Inputs...)
		for _, h := range minimal {
			var req SetReq
			for a := range h {
				if in.Has(a) {
					req.In = append(req.In, a)
				} else {
					req.Out = append(req.Out, a)
				}
			}
			sort.Strings(req.In)
			sort.Strings(req.Out)
			spec.SetList = append(spec.SetList, req)
		}
		specs[i] = spec
	}
	p.Modules = specs
	return p, nil
}
