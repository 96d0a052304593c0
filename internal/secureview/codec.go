package secureview

import (
	"fmt"
	"math"

	"secureview/internal/wire"
)

// AppendStructure appends the cost-free part of the problem's binary
// encoding: each module's name, interface, visibility and requirement lists
// in module order. Safety verdicts read only this part, so it is what the
// warm-start fingerprint hashes; two problems that differ only in costs
// share it.
func (p *Problem) AppendStructure(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(len(p.Modules)))
	for i := range p.Modules {
		m := &p.Modules[i]
		buf = wire.AppendString(buf, m.Name)
		buf = wire.AppendStrings(buf, m.Inputs)
		buf = wire.AppendStrings(buf, m.Outputs)
		buf = wire.AppendBool(buf, m.Public)
		buf = wire.AppendU64(buf, uint64(len(m.CardList)))
		for _, cr := range m.CardList {
			buf = wire.AppendU64(buf, uint64(cr.Alpha))
			buf = wire.AppendU64(buf, uint64(cr.Beta))
		}
		buf = wire.AppendU64(buf, uint64(len(m.SetList)))
		for _, sr := range m.SetList {
			buf = wire.AppendStrings(buf, sr.In)
			buf = wire.AppendStrings(buf, sr.Out)
		}
	}
	return buf
}

// appendCosts appends the cost section of the encoding: every module's
// PrivatizeCost in module order, then Costs in sorted name order.
func (p *Problem) appendCosts(buf []byte) []byte {
	buf = wire.AppendU64(buf, uint64(len(p.Modules)))
	for i := range p.Modules {
		buf = wire.AppendF64(buf, p.Modules[i].PrivatizeCost)
	}
	return wire.AppendFloatMap(buf, p.Costs)
}

// AppendBinary appends the whole problem, structure then costs. Equal
// problems encode to equal bytes and DecodeProblem reads it back.
func (p *Problem) AppendBinary(buf []byte) []byte {
	return p.appendCosts(p.AppendStructure(buf))
}

// DecodeProblem reads a problem written by AppendBinary, re-validating the
// bounds the solvers rely on: non-empty module names, cardinality
// requirements within int32, and one privatization cost per module.
func DecodeProblem(r *wire.Reader) (*Problem, error) {
	nMods := r.Count(1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	p := &Problem{Modules: make([]ModuleSpec, nMods)}
	for i := range p.Modules {
		m := &p.Modules[i]
		m.Name = r.String()
		if m.Name == "" && r.Err() == nil {
			return nil, fmt.Errorf("secureview: decoded module %d has empty name", i)
		}
		m.Inputs = r.Strings()
		m.Outputs = r.Strings()
		m.Public = r.Bool()
		if nCard := r.Count(16); nCard > 0 {
			m.CardList = make([]CardReq, nCard)
			for j := range m.CardList {
				alpha, beta := r.U64(), r.U64()
				if (alpha > math.MaxInt32 || beta > math.MaxInt32) && r.Err() == nil {
					return nil, fmt.Errorf("secureview: decoded requirement (%d,%d) out of range", alpha, beta)
				}
				m.CardList[j] = CardReq{Alpha: int(alpha), Beta: int(beta)}
			}
		}
		if nSet := r.Count(16); nSet > 0 {
			m.SetList = make([]SetReq, nSet)
			for j := range m.SetList {
				m.SetList[j] = SetReq{In: r.Strings(), Out: r.Strings()}
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	if n := r.U64(); n != uint64(nMods) && r.Err() == nil {
		return nil, fmt.Errorf("secureview: decoded %d privatization costs for %d modules", n, nMods)
	}
	for i := range p.Modules {
		p.Modules[i].PrivatizeCost = r.F64()
	}
	p.Costs = r.FloatMap()
	return p, r.Err()
}
