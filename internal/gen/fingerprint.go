package gen

import (
	"encoding/hex"
	"fmt"

	"secureview/internal/privacy"
	"secureview/internal/wire"
)

// CanonicalBytes serializes the instance deterministically with the
// internal/wire appenders: config, seed, Γ, the workflow name, every
// module's name, visibility and module-view encoding (attribute split,
// domains and full truth table), then all costs in schema order and the
// public modules' privatization costs. Two instances are the same scenario
// iff their canonical bytes are equal, which is what the reproducibility
// guarantee ("same seed, byte-identical instance") is asserted against.
func (it *Instance) CanonicalBytes() ([]byte, error) {
	cfg := it.Cfg
	buf := wire.AppendU64(make([]byte, 0, 4096), uint64(it.Seed))
	for _, v := range []int{int(cfg.Topology), cfg.Modules, cfg.Layers, cfg.Width,
		cfg.FanIn, cfg.FanOut, cfg.Domain, cfg.Share, int(cfg.Funcs), int(cfg.Costs)} {
		buf = wire.AppendU64(buf, uint64(v))
	}
	buf = wire.AppendF64(buf, cfg.PublicFrac)
	buf = wire.AppendF64(buf, cfg.MaxCost)
	buf = wire.AppendU64(buf, cfg.Gamma)
	buf = wire.AppendU64(buf, it.Gamma)
	buf = wire.AppendString(buf, it.W.Name())
	mods := it.W.Modules()
	buf = wire.AppendU64(buf, uint64(len(mods)))
	for _, m := range mods {
		if size, ok := m.InputDomainSize(); !ok || size > 1<<12 {
			return nil, fmt.Errorf("gen: module %s domain too large to serialize", m.Name())
		}
		buf = wire.AppendString(buf, m.Name())
		buf = wire.AppendU64(buf, uint64(m.Visibility()))
		buf = privacy.NewModuleView(m).AppendBinary(buf)
	}
	names := it.W.Schema().Names()
	buf = wire.AppendU64(buf, uint64(len(names)))
	for _, a := range names {
		buf = wire.AppendString(buf, a)
		buf = wire.AppendF64(buf, it.Costs[a])
	}
	pubs := it.W.PublicModules()
	buf = wire.AppendU64(buf, uint64(len(pubs)))
	for _, m := range pubs {
		buf = wire.AppendString(buf, m.Name())
		buf = wire.AppendF64(buf, it.PrivatizeCosts[m.Name()])
	}
	return buf, nil
}

// Fingerprint returns the hex wire.Fingerprint of CanonicalBytes.
func (it *Instance) Fingerprint() (string, error) {
	raw, err := it.CanonicalBytes()
	if err != nil {
		return "", err
	}
	fp := wire.Fingerprint("gen/instance/v2", raw)
	return hex.EncodeToString(fp[:]), nil
}
