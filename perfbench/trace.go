package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"secureview/internal/gen"
	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
)

// serverTimeout is the per-request deadline the server applies when a
// request names none; the replay passes it to the solver the same way.
const serverTimeout = 30 * time.Second

// traceHeader carries a request's ID from the client to the handler
// wrapper, so the spans of one request share it.
const traceHeader = "X-Perfbench-Request"

// span is one timed interval of one request at one layer boundary.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"` // since the tracer started
	Dur    float64 `json:"dur_us"`
	Note   string  `json:"note,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is switched on only
// for the traced phase of a --trace 1 run.
type tracer struct {
	t0          time.Time
	on          atomic.Bool
	mu          sync.Mutex
	spans       []span
	inflight    atomic.Int64
	inflightMax atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) record(id int, name string, start, end time.Time) {
	t.add(span{ID: id, Name: name, Parent: parentOf(name), Start: us(start.Sub(t.t0)), Dur: us(end.Sub(start))})
}

func parentOf(name string) string {
	switch name {
	case "client":
		return ""
	case "server.handler":
		return "client"
	default:
		return "server.handler"
	}
}

// wrap times every traced request through the server's handler and tracks
// how many run at once.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(traceHeader))
		if err != nil || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		n := t.inflight.Add(1)
		for m := t.inflightMax.Load(); n > m && !t.inflightMax.CompareAndSwap(m, n); m = t.inflightMax.Load() {
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(id, "server.handler", start, time.Now())
		t.inflight.Add(-1)
	})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-runs requests through the public calls the server's runJob
// and handleBatch make, in their order, timing each call as a span of the
// request's ID. Its session is prepared to the state the server's session
// had, so hits and misses match. A replayer without a tracer times nothing;
// input generation and the verifier derive problems through one.
type replayer struct {
	t    *tracer // nil: untimed
	sess *solve.Session
	// engine counters and warm outcomes, per engine solve
	engine []solve.Counters
	warm   []bool
}

func (rp *replayer) timed(id int, name string, note func() string, f func()) {
	if rp.t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	end := time.Now()
	s := span{ID: id, Name: name, Parent: "server.handler", Start: us(start.Sub(rp.t.t0)), Dur: us(end.Sub(start))}
	if note != nil {
		s.Note = note()
	}
	rp.t.add(s)
}

// resolve derives the set or cardinality problem of a wire request the way
// the server does: gen.Resolve, then the Session derivation for
// workflow-backed instances.
func (rp *replayer) resolve(id int, req *server.SolveRequest) (*secureview.Problem, secureview.Variant, error) {
	v := secureview.Set
	if req.Variant == "cardinality" {
		v = secureview.Cardinality
	}
	var err error
	var p *secureview.Problem
	var rv *gen.Resolved
	rp.timed(id, "gen.resolve", nil, func() { rv, err = gen.Resolve(instanceRef(req)) })
	if err != nil {
		return nil, v, err
	}
	if rv.Problem != nil {
		return rv.Problem, v, nil
	}
	it := rv.Instance
	before := rp.sess.Stats()
	rp.timed(id, "session.problem", func() string {
		after := rp.sess.Stats()
		switch {
		case after.DeltaDerives > before.DeltaDerives:
			return "delta"
		case after.Misses > before.Misses:
			return "miss"
		default:
			return "hit"
		}
	}, func() {
		p, err = rp.sess.Problem(context.Background(), it.W, v, it.Gamma, it.Costs, it.PrivatizeCosts)
	})
	return p, v, err
}

func (rp *replayer) fingerprint(id int, p *secureview.Problem, v secureview.Variant) string {
	var fp string
	rp.timed(id, "session.fingerprint", nil, func() { fp = solve.ProblemFingerprint(p, v) })
	return fp
}

func (rp *replayer) encode(id int, v any) error {
	var err error
	rp.timed(id, "encode.response", nil, func() { _, err = json.Marshal(v) })
	return err
}

// replay re-runs one request. Errors mean the replay diverged from what the
// server answered, which the caller reports.
func (rp *replayer) replay(r *request, body []byte) error {
	if r.batch {
		var b server.BatchRequest
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		return rp.replayBatch(r.id, &b)
	}
	var req server.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	p, v, err := rp.resolve(r.id, &req)
	if err != nil {
		return err
	}
	fp := rp.fingerprint(r.id, p, v)
	opts := solve.Options{Variant: v, Timeout: serverTimeout}
	if req.Base != "" {
		rp.timed(r.id, "warm.lookup", nil, func() { opts.Resume = rp.sess.Warm(req.Base) })
	}
	var res solve.Result
	rp.timed(r.id, "solve."+req.Solver, func() string {
		if req.Solver == "engine" && res.Resumed {
			return "warm"
		}
		return ""
	}, func() { res, err = solve.Solve(context.Background(), req.Solver, p, opts) })
	if err != nil {
		return err
	}
	if req.Solver == "engine" {
		rp.engine = append(rp.engine, res.Counters)
		rp.warm = append(rp.warm, res.Resumed)
	}
	if res.Frontier != nil {
		rp.timed(r.id, "warm.store", nil, func() { rp.sess.StoreWarm(fp, res.Frontier) })
	}
	return rp.encode(r.id, responseOf(res, fp))
}

func (rp *replayer) replayBatch(id int, b *server.BatchRequest) error {
	workers := len(b.Jobs)
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	jobs := make([]solve.Job, len(b.Jobs))
	fps := make([]string, len(b.Jobs))
	for i := range b.Jobs {
		jr := &b.Jobs[i]
		p, v, err := rp.resolve(id, jr)
		if err != nil {
			return err
		}
		jobs[i] = solve.Job{Name: fmt.Sprintf("job%d", i), Problem: p, Solver: jr.Solver,
			Options: solve.Options{Variant: v, Timeout: serverTimeout}}
		fps[i] = rp.fingerprint(id, p, v)
	}
	var results []solve.JobResult
	rp.timed(id, "batch", nil, func() { results = solve.SolveBatch(context.Background(), jobs, workers) })
	out := server.BatchResponse{Results: make([]server.BatchResult, len(results))}
	for i, res := range results {
		if res.Err != nil {
			return res.Err
		}
		if res.Result.Frontier != nil {
			rp.timed(id, "warm.store", nil, func() { rp.sess.StoreWarm(fps[i], res.Result.Frontier) })
		}
		out.Results[i] = server.BatchResult{Code: http.StatusOK, Response: responseOf(res.Result, fps[i])}
	}
	return rp.encode(id, out)
}

// responseOf builds the wire response the server would encode.
func responseOf(res solve.Result, fp string) *server.SolveResponse {
	status := "feasible"
	if res.Optimal {
		status = "optimal"
	}
	return &server.SolveResponse{
		Status:     status,
		Solver:     res.Solver,
		Variant:    res.Variant.String(),
		Hidden:     res.Solution.Hidden.Sorted(),
		Privatized: res.Solution.Privatized.Sorted(),
		Cost:       res.Cost,
		Optimal:    res.Optimal,
		Bound:      server.BoundSpec{LP: res.Bound.LP, Factor: res.Bound.Factor, Theorem: res.Bound.Theorem},
		Counters: server.CountersSpec{Nodes: res.Counters.Nodes, Checked: res.Counters.Checked,
			Pruned: res.Counters.Pruned, MemoHits: res.Counters.MemoHits},
		Fingerprint: fp,
		Warm:        res.Resumed,
	}
}
