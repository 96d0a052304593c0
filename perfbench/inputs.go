package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"secureview/internal/gen"
	"secureview/internal/gen/corpus"
	"secureview/internal/module"
	"secureview/internal/relation"
	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
	"secureview/internal/spec"
	"secureview/internal/workflow"
)

// job is one solve job as generated: the wire request the server receives
// plus the identity of its (instance, variant), which the verifier uses to
// share one reference optimum between every job naming the same problem.
type job struct {
	req server.SolveRequest
	key string
}

// request is one HTTP request of a workload: a single /v1/solve job or a
// /v1/batch of several. Edit-chain steps carry only their chain: their
// bodies are assembled at send time (each step's base is the previous
// response's fingerprint).
type request struct {
	id    int
	batch bool
	jobs  []job
	body  []byte
	chain int
}

func (r *request) path() string {
	if r.batch {
		return "/v1/batch"
	}
	return "/v1/solve"
}

func encodeRequest(r *request) *request {
	var err error
	if r.batch {
		b := server.BatchRequest{}
		for _, j := range r.jobs {
			b.Jobs = append(b.Jobs, j.req)
		}
		r.body, err = json.Marshal(b)
	} else {
		r.body, err = json.Marshal(r.jobs[0].req)
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a generated request: %v", err)) // generated values always encode
	}
	return r
}

// inputs is everything a run sends, generated from the seed before any
// clock starts.
type inputs struct {
	warm  []*request // the warm-up pass, replayed on every set-up
	reqs  []*request // open-loop schedule (hot-mix, cold-solve), in due order
	extra []*request // cold-solve saturation probe
	// edit-chain only
	chains    []*chain
	snapExtra []*request // other instances the snapshotting server derived
}

// instanceRef lowers a wire request onto the canonical instance reference,
// as the server does.
func instanceRef(r *server.SolveRequest) gen.InstanceRef {
	ref := gen.InstanceRef{Spec: r.Spec, CSV: r.CSV, Corpus: r.Corpus, Gamma: r.Gamma}
	if r.Generated != nil {
		ref.Class, ref.Seed = r.Generated.Class, r.Generated.Seed
	}
	return ref
}

func allPrivate(p *secureview.Problem) bool {
	for _, m := range p.Modules {
		if m.Public {
			return false
		}
	}
	return true
}

// specDoc serializes a generated workflow with its costs and Γ.
func specDoc(name string, w *workflow.Workflow, costs map[string]float64, priv map[string]float64, gamma uint64) *spec.Document {
	doc, err := spec.FromWorkflow(w)
	if err != nil {
		panic(fmt.Sprintf("perfbench: serializing %s: %v", name, err)) // generated domains are small
	}
	doc.Name, doc.Costs, doc.PrivatizeCosts, doc.Gamma = name, costs, priv, gamma
	return doc
}

// --- hot-mix ---------------------------------------------------------------

// hotMixInputs builds the small fixed working set (canonical classes at
// seeds 0-2 plus the smaller corpus entries, under the cheap solvers,
// small-k engine and small-k cardinality exact solvers), a warm-up pass
// naming every item once, and an open-loop schedule of n requests ordered
// by the seed, of which a fifth are 2-4 job batches.
func hotMixInputs(w workload, seed int64, n int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	var refs []server.SolveRequest
	for _, c := range gen.Classes() {
		for s := int64(0); s < 3; s++ {
			refs = append(refs, server.SolveRequest{Generated: &server.GeneratedRef{Class: c.Name, Seed: s}})
		}
	}
	for _, c := range gen.ProblemClasses() {
		for s := int64(0); s < 3; s++ {
			refs = append(refs, server.SolveRequest{Generated: &server.GeneratedRef{Class: c.Name, Seed: s}})
		}
	}
	for _, e := range corpus.Entries() {
		if e.K <= w.CorpusMaxK {
			refs = append(refs, server.SolveRequest{Corpus: e.ID})
		}
	}

	rp := &replayer{sess: solve.NewSession()}
	var items []job
	for _, base := range refs {
		for _, variant := range []string{"set", "cardinality"} {
			req := base
			req.Variant = variant
			p, v, err := rp.resolve(0, &req)
			if err != nil {
				continue // e.g. a class with no Γ-safe option at this seed
			}
			k := len(p.UsefulAttributes(v))
			var solvers []string
			if v == secureview.Set {
				solvers = []string{"greedy", "lp", "portfolio", "approx-setcover"}
				if allPrivate(p) && k <= 24 {
					solvers = append(solvers, "exact") // engine is its reference
				}
				if allPrivate(p) && k <= w.EngineMaxK {
					solvers = append(solvers, "engine")
				}
			} else if k <= w.CorpusMaxK {
				// The cardinality exact solvers enumerate hidden sets, so
				// only small universes keep them in the hot working set.
				solvers = []string{"bb", "exact"} // each the other's reference
			}
			for _, name := range solvers {
				sv, _ := solve.Get(name)
				if sv.Supports(p, v) != nil {
					continue
				}
				// Node budgets are deterministic, so an item that exhausts
				// one here would fail on every run: leave it out.
				if _, err := solve.Solve(context.Background(), name, p, solve.Options{Variant: v}); err != nil {
					continue
				}
				j := job{req: req, key: refKey(&req)}
				j.req.Solver = name
				items = append(items, j)
			}
		}
	}
	in := &inputs{}
	for _, it := range items {
		in.warm = append(in.warm, encodeRequest(&request{jobs: []job{it}}))
	}
	// Jobs come from a deck holding every item once, shuffled by the seed
	// and refilled when empty; one request at a seeded place in every block
	// of 1/batch_frac is a batch, of 2, 3 and 4 jobs in turn. So every run
	// sends each item, and each batch size, equally often.
	var deck []job
	draw := func() job {
		if len(deck) == 0 {
			deck = append(deck, items...)
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		j := deck[len(deck)-1]
		deck = deck[:len(deck)-1]
		return j
	}
	block := int(math.Round(1 / w.BatchFrac))
	batchAt, batches := 0, 0
	for i := 0; i < n; i++ {
		if i%block == 0 {
			batchAt = i + rng.Intn(block)
		}
		r := &request{id: i}
		if i == batchAt {
			r.batch = true
			for k := 2 + batches%3; k > 0; k-- {
				r.jobs = append(r.jobs, draw())
			}
			batches++
		} else {
			r.jobs = []job{draw()}
		}
		in.reqs = append(in.reqs, encodeRequest(r))
	}
	return in
}

// refKey names the (instance, variant) a request solves.
func refKey(r *server.SolveRequest) string {
	v := r.Variant
	if v == "" {
		v = "set"
	}
	switch {
	case r.Generated != nil:
		return fmt.Sprintf("gen:%s/%d/%s", r.Generated.Class, r.Generated.Seed, v)
	case r.Corpus != "":
		return "corpus:" + r.Corpus + "/" + v
	default:
		return "spec:" + r.Spec.Name + "/" + v
	}
}

// --- cold-solve ------------------------------------------------------------

// coldGen draws requests naming instances no server has seen: fresh-seed
// corpus configurations and searchbench-shaped modules as spec documents,
// and fresh-seed mega classes. Seeds come from rng's stream and never
// repeat within a run; order shuffles the requests.
type coldGen struct {
	rng     *rand.Rand
	order   *rand.Rand
	entries []corpus.Entry
	rp      *replayer // untimed: derives candidates to check them
	prefix  string    // of spec document names
	next    int       // spec documents named so far
	ids     int       // requests numbered so far
	// Requests drawn so far per kind: corpus configurations, searchbench
	// variants and mega classes rotate, so every run has the same mix.
	corpusCount, sbCount, megaCount int
}

func newColdGen(seed int64, minK, maxK int) *coldGen {
	g := &coldGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), rp: &replayer{sess: solve.NewSessionBytes(64 << 20)}}
	g.order = g.rng
	for _, e := range corpus.Entries() {
		if e.K >= minK && e.K <= maxK {
			g.entries = append(g.entries, e)
		}
	}
	return g
}

func (g *coldGen) freshSeed() int64 { return 1<<32 + g.rng.Int63n(1<<40) }

func (g *coldGen) name(kind string) string {
	g.next++
	return fmt.Sprintf("%s%s-%d", g.prefix, kind, g.next)
}

// corpusDoc returns a spec request for the next corpus configuration at a
// fresh seed that has a Γ-safe derivation the solver accepts.
func (g *coldGen) corpusDoc(solver string) job {
	e := g.entries[g.corpusCount%len(g.entries)]
	g.corpusCount++
	for {
		it, err := gen.New(e.Cfg, g.freshSeed())
		if err != nil {
			continue
		}
		req := server.SolveRequest{Spec: specDoc(g.name("corpus"), it.W, it.Costs, it.PrivatizeCosts, it.Gamma), Solver: solver}
		if g.servable(&req) {
			return job{req: req, key: refKey(&req)}
		}
	}
}

// searchBenchK is the attribute count of cold-solve's searchbench-shaped
// modules: at k = 13 one such request outlasted the rest of a run's mix.
const searchBenchK = 12

// searchBenchDoc returns a single-module searchbench-shaped spec request (k
// boolean attributes, k/2 inputs at cost 4, outputs at cost 1, Γ forcing
// most outputs hidden) over a fresh random table.
func (g *coldGen) searchBenchDoc(solver string) job {
	const k = searchBenchK
	for {
		rng := rand.New(rand.NewSource(g.freshSeed()))
		nIn := k / 2
		in := make([]string, nIn)
		out := make([]string, k-nIn)
		costs := map[string]float64{}
		for i := range in {
			in[i] = fmt.Sprintf("x%d", i)
			costs[in[i]] = 4
		}
		for i := range out {
			out[i] = fmt.Sprintf("y%d", i)
			costs[out[i]] = 1
		}
		m := module.Random("m", relation.Bools(in...), relation.Bools(out...), rng)
		w, err := workflow.New("searchbench", m)
		if err != nil {
			continue
		}
		req := server.SolveRequest{Spec: specDoc(g.name(fmt.Sprintf("searchbench%d", k)), w, costs, nil, uint64(1)<<(k-nIn-1)), Solver: solver}
		if g.servable(&req) {
			return job{req: req, key: refKey(&req)}
		}
	}
}

func (g *coldGen) mega(class, solver string) job {
	req := server.SolveRequest{Generated: &server.GeneratedRef{Class: class, Seed: g.freshSeed()}, Solver: solver}
	return job{req: req, key: refKey(&req)}
}

// servable reports whether the request derives and its solver accepts the
// problem; only such requests are generated, so no operation fails.
func (g *coldGen) servable(req *server.SolveRequest) bool {
	p, v, err := g.rp.resolve(0, req)
	if err != nil {
		return false
	}
	sv, _ := solve.Get(req.Solver)
	return sv.Supports(p, v) == nil
}

// cycle returns one cycle of the cold mix.
func (g *coldGen) cycle(w workload) []job {
	var js []job
	for i := 0; i < w.Mix.Corpus; i++ {
		js = append(js, g.corpusDoc("engine"))
	}
	for i := 0; i < w.Mix.SearchBench; i++ {
		js = append(js, g.searchBenchDoc([]string{"engine", "exact"}[g.sbCount%2]))
		g.sbCount++
	}
	megas := gen.MegaProblemClasses()
	for i := 0; i < w.Mix.Mega; i++ {
		js = append(js, g.mega(megas[g.megaCount%len(megas)].Name, "portfolio"))
		g.megaCount++
	}
	return js
}

// requests returns n requests: whole cycles of the mix (the last one cut
// short), shuffled within and across cycles by g.order. Within a cycle the
// heavy requests (searchbench and mega) sit at evenly spaced places and the
// corpus requests fill the rest, so every order puts heavy requests equally
// far apart: when two of them met, each took up to twice as long, and the
// p95 moved with how often an order made them meet.
func (g *coldGen) requests(w workload, n int) []*request {
	var cycles [][]job
	for total := 0; total < n; {
		c := g.cycle(w)
		light, heavy := c[:w.Mix.Corpus], c[w.Mix.Corpus:]
		g.order.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
		g.order.Shuffle(len(heavy), func(i, j int) { heavy[i], heavy[j] = heavy[j], heavy[i] })
		spaced := make([]job, 0, len(c))
		step := len(c) / max(1, len(heavy))
		for i := range c {
			if len(heavy) > 0 && i%step == 0 {
				spaced, heavy = append(spaced, heavy[0]), heavy[1:]
			} else {
				spaced, light = append(spaced, light[0]), light[1:]
			}
		}
		spaced = spaced[:min(len(spaced), n-total)]
		cycles = append(cycles, spaced)
		total += len(spaced)
	}
	g.order.Shuffle(len(cycles), func(i, j int) { cycles[i], cycles[j] = cycles[j], cycles[i] })
	var out []*request
	for _, c := range cycles {
		for _, j := range c {
			g.ids++
			out = append(out, encodeRequest(&request{id: g.ids, jobs: []job{j}}))
		}
	}
	return out
}

// coldContentSeed fixes the instances cold-solve generates. The time to
// solve a fresh-seed instance is heavy-tailed, so with instances drawn from
// the run seed its p50 and tail moved with the draw: every run now solves
// the same instances, each new to its server, and the run seed orders them.
const coldContentSeed = 1

// coldSolveInputs builds the measured and saturation requests from the
// fixed content seed, in the run seed's order. The saturation requests are
// ordered round by round, so each round's share holds the same instances on
// every run. The warm-up pass comes from a seed of its own, so set-up does
// the same work on every run; its instances are fresh to each server all
// the same.
func coldSolveInputs(w workload, seed int64, n, extra int) *inputs {
	g := newColdGen(coldContentSeed, w.CorpusMinK, w.CorpusMaxK)
	g.order = rand.New(rand.NewSource(seed))
	warm := newColdGen(0, w.CorpusMinK, w.CorpusMaxK)
	warm.prefix = "warm-"
	in := &inputs{warm: warm.requests(w, w.WarmRequests), reqs: g.requests(w, n)}
	for r := 0; r < w.Rounds; r++ {
		in.extra = append(in.extra, g.requests(w, extra/w.Rounds)...)
	}
	return in
}

// --- edit-chain ------------------------------------------------------------

// chain is one client's cost-only edit chain over a mid-size spec
// document. Each step changes one attribute's cost; steps are generated in
// advance as (attribute, cost level) pairs and applied cumulatively.
type chain struct {
	idx    int
	doc    []byte // the spec document with "costs" left out
	attrs  []string
	costs0 []float64
	edits  []edit
	req    server.SolveRequest // the first step, as the snapshotting server saw it
	key    string
}

type edit struct{ attr, level uint8 }

// editCost maps a cost level to the cost it sets.
func editCost(level uint8) float64 { return 1 + float64(level)*0.05 }

func editChainInputs(w workload, seed int64) *inputs {
	g := newColdGen(seed, w.CorpusMinK, w.CorpusMaxK)
	in := &inputs{}
	for c := 0; c < w.Clients*w.ChainsPerClient; c++ {
		j := g.corpusDoc("engine")
		for len(j.req.Spec.Costs) > 64 { // a step's record keeps its hidden set as a 64-bit mask
			j = g.corpusDoc("engine")
		}
		doc := *j.req.Spec
		ch := &chain{idx: c, req: j.req, key: j.key}
		for a := range doc.Costs {
			ch.attrs = append(ch.attrs, a)
		}
		sort.Strings(ch.attrs)
		for _, a := range ch.attrs {
			ch.costs0 = append(ch.costs0, doc.Costs[a])
		}
		doc.Costs = nil
		var err error
		if ch.doc, err = json.Marshal(&doc); err != nil {
			panic(fmt.Sprintf("perfbench: encoding a generated document: %v", err))
		}
		ch.edits = make([]edit, w.StepsPerChain)
		for i := range ch.edits {
			ch.edits[i] = edit{attr: uint8(g.rng.Intn(len(ch.attrs))), level: uint8(g.rng.Intn(81))}
		}
		in.chains = append(in.chains, ch)
	}
	for i := 0; i < w.SnapshotExtra; i++ {
		in.snapExtra = append(in.snapExtra, encodeRequest(&request{jobs: []job{g.corpusDoc("engine")}}))
	}
	return in
}

// stepBody assembles an edit step's request: the chain's document with the
// step's costs spliced in, solved by the engine from the given base.
func (ch *chain) stepBody(costs []float64, base string) []byte {
	b := make([]byte, 0, len(ch.doc)+32*len(costs)+160)
	b = append(b, `{"solver":"engine","base":"`...)
	b = append(b, base...)
	b = append(b, `","spec":{"costs":{`...)
	for i, a := range ch.attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, a)
		b = append(b, ':')
		b = strconv.AppendFloat(b, costs[i], 'g', -1, 64)
	}
	b = append(b, "},"...)
	b = append(b, ch.doc[1:]...)
	return append(b, '}')
}
