package main

import (
	"net/http"
	"sort"
	"strings"
	"time"

	"secureview/internal/solve"
)

// snapshotInfo describes the snapshot the edit-chain server booted from,
// restored once more off the clock through solve.RestoreSession.
type snapshotInfo struct {
	restore time.Duration
	bytes   int
	entries int
}

// registrySolvers are the solvers reported per layer.
var registrySolvers = []string{"engine", "exact", "bb", "greedy", "lp", "portfolio", "approx-setcover"}

// perLayer fills the --trace 1 metrics from the traced phase: client and
// handler spans from the live run, inner-layer spans from the replay.
func perLayer(res *result, plain, traced phase, tr *tracer, rp *replayer,
	before, after solve.SessionStats, snap snapshotInfo) {
	byName := map[string][]span{}
	client := map[int]float64{}
	handler := map[int]float64{}
	inner := map[int]float64{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s)
		switch s.Name {
		case "client":
			client[s.ID] = s.Dur
		case "server.handler":
			handler[s.ID] = s.Dur
		default:
			inner[s.ID] += s.Dur
		}
	}
	durs := func(name string, keep func(span) bool) []float64 {
		var out []float64
		for _, s := range byName[name] {
			if keep == nil || keep(s) {
				out = append(out, s.Dur)
			}
		}
		return out
	}
	note := func(n string) func(span) bool { return func(s span) bool { return s.Note == n } }
	p50us := func(xs []float64) float64 { return percentile(xs, 50) }
	p50ms := func(xs []float64) float64 { return percentile(xs, 50) / 1e3 }
	busy := func(xs []float64) float64 { return sum(xs) / 1e6 }

	// loadgen
	var lag, wait []float64
	rejected := 0
	for _, o := range traced.outs {
		lag = append(lag, ms(o.lag))
		wait = append(wait, ms(o.connWait))
		if o.code == http.StatusTooManyRequests {
			rejected++
		}
	}
	res.add("loadgen.lag_p99_ms", percentile(lag, 99), "ms")
	res.add("loadgen.conn_wait_p50_ms", percentile(wait, 50), "ms")

	// server
	var self, transport []float64
	for id, h := range handler {
		self = append(self, h-inner[id])
		if c, ok := client[id]; ok {
			transport = append(transport, c-h)
		}
	}
	res.add("server.handler_p50_us", p50us(durs("server.handler", nil)), "us")
	res.add("server.self_p50_us", p50us(self), "us")
	res.add("server.transport_p50_us", p50us(transport), "us")
	res.add("server.inflight_max", float64(tr.inflightMax.Load()), "count")
	res.add("server.rejected", float64(rejected), "count")

	// gen
	res.add("gen.resolve_p50_us", p50us(durs("gen.resolve", nil)), "us")
	res.add("gen.resolve_busy_s", busy(durs("gen.resolve", nil)), "s")

	// session
	missed := func(s span) bool { return s.Note != "hit" }
	res.add("session.problem_hit_p50_us", p50us(durs("session.problem", note("hit"))), "us")
	res.add("session.fingerprint_p50_us", p50us(durs("session.fingerprint", nil)), "us")
	res.add("session.problem_miss_p50_ms", p50ms(durs("session.problem", missed)), "ms")
	res.add("session.derive_busy_s", busy(durs("session.problem", missed)), "s")
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	res.add("session.hit_ratio", ratio, "ratio")
	res.add("session.delta_derives", float64(after.DeltaDerives-before.DeltaDerives), "count")
	res.add("session.evictions", float64(after.Evictions-before.Evictions), "count")
	res.add("session.bytes_mb", float64(after.Bytes)/(1<<20), "MB")

	// solve
	for _, name := range registrySolvers {
		d := durs("solve."+name, nil)
		res.add("solve."+name+".p50_ms", p50ms(d), "ms")
		res.add("solve."+name+".busy_s", busy(d), "s")
		res.add("solve."+name+".calls", float64(len(d)), "count")
	}
	var checked, nodes, pruned, memo []float64
	resumed := 0
	for i, c := range rp.engine {
		checked = append(checked, float64(c.Checked))
		nodes = append(nodes, float64(c.Nodes))
		pruned = append(pruned, float64(c.Pruned))
		memo = append(memo, float64(c.MemoHits))
		if rp.warm[i] {
			resumed++
		}
	}
	prunedFrac := 0.0
	if t := sum(checked) + sum(pruned); t > 0 {
		prunedFrac = sum(pruned) / t
	}
	res.add("solve.engine.checked_mean", mean(checked), "count")
	res.add("solve.engine.nodes_mean", mean(nodes), "count")
	res.add("solve.engine.pruned_frac", prunedFrac, "ratio")
	res.add("solve.engine.memo_hits_mean", mean(memo), "count")
	res.add("batch.p50_ms", p50ms(durs("batch", nil)), "ms")

	// warm: the share of live responses to edit steps naming a base that
	// actually resumed from it (no other request names a base).
	based, warm := 0, 0
	for _, o := range traced.outs {
		if o.step == nil || !o.step.based || o.code != http.StatusOK {
			continue
		}
		based++
		if o.step.warm {
			warm++
		}
	}
	resumedFrac := 0.0
	if based > 0 {
		resumedFrac = float64(warm) / float64(based)
	}
	res.add("warm.resumed_frac", resumedFrac, "ratio")
	res.add("warm.lookup_p50_us", p50us(durs("warm.lookup", nil)), "us")
	res.add("warm.store_p50_us", p50us(durs("warm.store", nil)), "us")
	res.add("solve.engine.warm_p50_ms", p50ms(durs("solve.engine", note("warm"))), "ms")

	// snapshot
	res.add("snapshot.restore_ms", ms(snap.restore), "ms")
	res.add("snapshot.bytes_kb", float64(snap.bytes)/1024, "KB")
	res.add("snapshot.entries", float64(snap.entries), "count")

	res.add("encode.response_p50_us", p50us(durs("encode.response", nil)), "us")

	// Tracing overhead: traced minus untraced median end-to-end latency.
	res.add("trace.overhead_p50_ms", percentile(latencies(traced.outs), 50)-percentile(latencies(plain.outs), 50), "ms")

	layerShares(res, client, handler, byName)
	res.note("replayed engine solves: %d, resumed: %d", len(rp.engine), resumed)
}

// layerShares notes each layer's share of client-observed request time:
// transport (client minus handler), server self time, and the replayed
// inner layers, with solve time split by solver.
func layerShares(res *result, client, handler map[int]float64, byName map[string][]span) {
	total := 0.0
	for _, c := range client {
		total += c
	}
	if total == 0 {
		return
	}
	shares := map[string]float64{}
	for id, c := range client {
		if h, ok := handler[id]; ok {
			shares["transport"] += c - h
			shares["server.self"] += h
		}
	}
	for name, spans := range byName {
		layer := name
		switch {
		case name == "client" || name == "server.handler":
			continue
		case strings.HasPrefix(name, "session."):
			layer = "session"
		case strings.HasPrefix(name, "warm."):
			layer = "warm"
		}
		for _, s := range spans {
			shares[layer] += s.Dur
			shares["server.self"] -= s.Dur
		}
	}
	var names []string
	for n := range shares {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.note("share of request time %-12s %6.1f%%", n, 100*shares[n]/total)
	}
}
