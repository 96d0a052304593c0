package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"secureview/internal/secureview"
	"secureview/internal/server"
	"secureview/internal/solve"
)

// outDir holds the run's files (the edit-chain snapshot, span dumps),
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench/runs"

// live is a booted server and the client driving it.
type live struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	c      *client
	once   sync.Once
}

// boot starts a server on a loopback port, restores its snapshot if one is
// configured, waits for /readyz and runs the warm-up pass. The returned
// duration is the set-up time.
func boot(cfg server.Config, tr *tracer, conns int, warm []*request) (*live, []*outcome, time.Duration, error) {
	start := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	l := &live{srv: srv, hs: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	l.c = newClient("http://"+ln.Addr().String(), conns)
	l.c.trace = tr
	if cfg.SnapshotPath != "" {
		srv.BootRestore(nil)
	}
	for {
		resp, err := l.c.http.Get(l.c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > time.Minute {
			l.stop()
			return nil, nil, 0, fmt.Errorf("server not ready after a minute")
		}
		time.Sleep(time.Millisecond)
	}
	outs := l.c.closedLoop(conns, warm)
	return l, outs, time.Since(start), nil
}

// stop shuts the server down and waits for it; later calls do nothing.
func (l *live) stop() {
	l.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = l.hs.Shutdown(ctx) // every request the client sent has returned
		<-l.served
		l.c.close()
	})
}

// phase is one measured stretch of a run.
type phase struct {
	outs    []*outcome
	elapsed time.Duration
	heapMB  float64 // peak live heap while the requests ran
}

// run makes one run of a workload; setups is how many times it sets the
// server up.
func run(name string, w workload, seed int64, seconds float64, trace bool, setups int) (*result, error) {
	res := &result{}
	started := time.Now()
	stage := func(name string) {
		res.note("stage %-8s done at %6.1fs", name, time.Since(started).Seconds())
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	conns := w.Clients
	if n := runtime.NumCPU(); conns > n {
		conns = n
	}
	total := time.Duration(seconds * float64(time.Second))
	mainDur := time.Duration(float64(total) * w.MainFrac)
	if trace {
		mainDur = total / 2
	}

	// Inputs, the edit-chain snapshot and the verifier's view of every
	// instance are built before any clock starts.
	var in *inputs
	switch name {
	case "hot-mix":
		n := int(w.RateRPS*mainDur.Seconds()) + 1
		if trace {
			n = int(w.RateRPS*total.Seconds()) + 1
		}
		in = hotMixInputs(w, seed, n)
	case "cold-solve":
		n := int(w.RateRPS*mainDur.Seconds()) + 1
		if trace {
			n = int(w.RateRPS*total.Seconds()) + 1
		}
		in = coldSolveInputs(w, seed, n, w.SaturationRequests)
	case "edit-chain":
		in = editChainInputs(w, seed)
	default:
		return nil, fmt.Errorf("workload %q has no generator", name)
	}
	vf := newVerifier(seed, w.VerifySample)
	budget := int64(256 << 20) // the server's default session budget
	if w.SessionMB > 0 {
		budget = w.SessionMB << 20
	}
	cfg := server.Config{SessionBytes: budget}
	var edit *editLoop
	if name == "edit-chain" {
		cfg.SnapshotPath = filepath.Join(outDir, fmt.Sprintf("edit-chain-%d.snap", seed))
		cfg.SnapshotEvery = -1
		edit = newEditLoop(in.chains, w.ChainsPerClient)
		if err := prepareSnapshot(in, cfg.SnapshotPath, vf, edit, w.SnapshotSteps); err != nil {
			return nil, err
		}
		defer os.Remove(cfg.SnapshotPath)
	}

	stage("inputs")
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var l *live
	var warmOuts []*outcome
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if l != nil {
			l.stop()
		}
		runtime.GC()
		var d time.Duration
		var err error
		if l, warmOuts, d, err = boot(cfg, tr, conns, in.warm); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	stage("set-up")
	defer l.stop()
	for _, o := range warmOuts {
		if o.err != nil || o.code != http.StatusOK {
			res.attempted++
			res.failed++
			res.note("warm-up failure: %s", describe(o))
		}
	}

	// measure drives one stretch of the workload; heap_peak_mb is sampled
	// while the requests run, before the edit-chain records are unpacked.
	measure := func(d time.Duration, offset int) (phase, int, error) {
		heap := startHeapSampler()
		t0 := time.Now()
		var outs []*outcome
		var log *stepLog
		var err error
		if edit != nil {
			log = edit.drive(l.c, conns, d)
		} else {
			outs, err = l.c.openLoop(in.reqs[offset:], w.RateRPS, d, conns)
		}
		p := phase{elapsed: time.Since(t0), heapMB: heap.finish()}
		if log != nil {
			outs = log.outcomes()
		}
		p.outs = outs
		if len(outs) > 0 {
			p.elapsed = phaseSpan(outs)
		}
		return p, offset + len(outs), err
	}

	runtime.GC()
	if !trace {
		// The main phase runs in rounds, each followed by its share of the
		// saturation measurement: hot-mix's ladder probes, or cold-solve's
		// closed-loop probes, whose median is max_rate_rps so that a burst
		// of noise from outside the benchmark moves at most one of them.
		rounds := max(1, w.Rounds)
		var main phase
		var rates []float64
		var ld *ladder
		if len(w.Ladder) > 0 {
			ld = newLadder(w.Ladder, total-mainDur)
		}
		offset := 0
		for r := 0; r < rounds; r++ {
			runtime.GC()
			seg, next, err := measure(mainDur/time.Duration(rounds), offset)
			if err != nil {
				return nil, err
			}
			offset = next
			main.outs = append(main.outs, seg.outs...)
			main.elapsed += seg.elapsed
			main.heapMB = max(main.heapMB, seg.heapMB)
			var pouts []*outcome
			if ld != nil {
				pouts, err = ld.climb(res, w, l, in.reqs, offset, (r+1)*ld.probes/rounds, conns)
			} else {
				var rate float64
				rate, pouts, err = saturation(name, in, l, r, rounds, seg, conns)
				rates = append(rates, rate)
			}
			if err != nil {
				return nil, err
			}
			// Probe answers are checked now, off the clock, and dropped, so
			// they do not count in a later round's heap_peak_mb.
			tally(res, pouts, verifyAll(vf, pouts, false))
		}
		if ld != nil {
			rates = []float64{ld.result()}
		}
		l.stop()
		stage("measured")
		vds := verifyAll(vf, main.outs, edit != nil)
		stage("verified")
		tally(res, main.outs, vds)
		if err := endToEnd(res, w, main, vds, median(setupTimes), median(rates)); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Traced run: an untraced stretch, then the same traffic with spans on,
	// then an off-the-clock replay of the traced requests through the
	// library calls the server makes.
	plain, offset, err := measure(mainDur, 0)
	if err != nil {
		return nil, err
	}
	before := l.srv.Session().Stats()
	tr.on.Store(true)
	traced, _, err := measure(total-mainDur, offset)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	after := l.srv.Session().Stats()
	l.stop()
	stage("measured")

	rp := &replayer{t: tr}
	snap := snapshotInfo{}
	switch name {
	case "hot-mix":
		rp.sess = solve.NewSessionBytes(budget)
		warmup := &replayer{sess: rp.sess}
		for _, r := range in.warm {
			if err := warmup.replay(r, r.body); err != nil {
				return nil, fmt.Errorf("replaying warm-up: %w", err)
			}
		}
	case "cold-solve":
		rp.sess = solve.NewSessionBytes(budget)
	case "edit-chain":
		raw, err := os.ReadFile(cfg.SnapshotPath)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sess, n, err := solve.RestoreSession(bytes.NewReader(raw), budget)
		snap = snapshotInfo{restore: time.Since(t0), bytes: len(raw), entries: n}
		if err != nil {
			return nil, fmt.Errorf("restoring the edit-chain snapshot: %w", err)
		}
		rp.sess = sess
	}
	order := append([]*outcome(nil), traced.outs...)
	sort.Slice(order, func(i, j int) bool { return order[i].sent.Before(order[j].sent) })
	for _, o := range order {
		if o.err != nil || o.code != http.StatusOK {
			continue
		}
		if err := rp.replay(o.req, o.body); err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", o.req.id, err)
		}
	}
	stage("replayed")
	all := append(append([]*outcome(nil), plain.outs...), traced.outs...)
	tally(res, all, verifyAll(vf, all, edit != nil))
	stage("verified")
	perLayer(res, plain, traced, tr, rp, before, after, snap)
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// tally counts attempted, failed and wrong requests; a run is correct
// when no answer failed verification.
func tally(res *result, all []*outcome, vds []verdict) {
	res.attempted += len(all)
	for i, vd := range vds {
		if !vd.ok {
			res.failed++
			if res.failed <= 5 {
				res.note("failed request %d: %s", all[i].req.id, vd.why)
			}
		}
		if vd.wrong {
			res.wrong++
		}
	}
}

// saturation measures max_rate_rps after a round of the main phase where
// the workload has no ladder. cold-solve has too few requests per second
// for a ladder probe to judge a tail, so it reports the completion rate of
// closed-loop clients through the round's fixed set of further fresh
// instances (whole rotations of the mix, so every run does the same kinds
// of work); edit-chain is closed-loop, so its main phase already is that
// measurement.
func saturation(name string, in *inputs, l *live, round, rounds int, main phase, conns int) (float64, []*outcome, error) {
	switch name {
	case "cold-solve":
		t0 := time.Now()
		n := len(in.extra) / rounds
		outs := l.c.closedLoop(conns, in.extra[round*n:(round+1)*n])
		return busyRate(outs, t0, conns), outs, nil
	default:
		return float64(okCount(main.outs)) / main.elapsed.Seconds(), nil, nil
	}
}

// busyRate is a closed loop's 2xx completion rate while every client had
// work: up to the completion after which the first client found none left.
// The drain after it, where the last clients finish alone, is left out; it
// lasts as long as whichever requests the order put last.
func busyRate(outs []*outcome, t0 time.Time, clients int) float64 {
	sorted := append([]*outcome(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].done.Before(sorted[j].done) })
	busy := sorted[:max(1, len(sorted)-clients+1)]
	return float64(okCount(busy)) / busy[len(busy)-1].done.Sub(t0).Seconds()
}

// ladder finds hot-mix's max_rate_rps on a fixed ladder of open-loop
// rates (see passes). A bisection finds the highest rung that passes, a
// rung failing only when a second probe confirms it; a staircase then
// spends the remaining probes stepping one rung up after each pass and one
// down after each failure, and the metric is the median completion rate of
// the staircase's passing probes. Near saturation a probe's p99 swings
// between passing and failing from one probe to the next, so a bisection
// alone would land several rungs apart from run to run. The probes are
// spread over the rounds of the main phase, so the main phase's windows and
// the probes sample the same stretch of the run.
type ladder struct {
	rungs    []float64 // req/s
	probes   int       // in all: twice the bisection's, and two to confirm failures
	dur      time.Duration
	done     int
	lo, hi   int     // bisection: lo passed (-1: none yet), hi failed
	failed   int     // a bisection rung that failed once (-1: none)
	rung     int     // the staircase's position
	bisected float64 // completion rate on lo
	passed   []float64
}

func newLadder(rungs []float64, d time.Duration) *ladder {
	probes := 2*int(math.Ceil(math.Log2(float64(len(rungs)+1)))) + 2
	return &ladder{rungs: rungs, probes: probes, dur: d / time.Duration(probes), lo: -1, hi: len(rungs), failed: -1}
}

// climb runs probes until upTo of them are done, sending the schedule's
// requests from offset on at each probe's rate. The working set is all
// cache hits by now, so probes cycle through the schedule.
func (ld *ladder) climb(res *result, w workload, l *live, sched []*request, offset, upTo, conns int) ([]*outcome, error) {
	var all []*outcome
	for ; ld.done < upTo; ld.done++ {
		bisecting := ld.hi-ld.lo > 1
		rung := ld.rung
		if bisecting {
			rung = (ld.lo + ld.hi) / 2
		}
		rate := ld.rungs[rung]
		reqs := make([]*request, int(rate*ld.dur.Seconds())+1)
		for i := range reqs {
			reqs[i] = sched[(offset+i)%len(sched)]
		}
		runtime.GC()
		outs, err := l.c.openLoop(reqs, rate, ld.dur, conns)
		if err != nil {
			return nil, err
		}
		offset += len(outs)
		all = append(all, outs...)
		ok, tail, wait := passes(w, outs)
		res.note("ladder probe %6.0f req/s: p99 %7.2f ms, last-third wait %7.2f ms, pass %v", rate, tail, wait, ok)
		done := float64(okCount(outs)) / phaseSpan(outs).Seconds()
		switch {
		case bisecting && ok:
			ld.lo, ld.bisected, ld.rung, ld.failed = rung, done, rung, -1
		case bisecting && ld.failed != rung:
			ld.failed = rung
		case bisecting:
			ld.hi, ld.failed = rung, -1
		case ok:
			ld.passed = append(ld.passed, done)
			ld.rung = min(rung+1, len(ld.rungs)-1)
		default:
			ld.rung = max(rung-1, 0)
		}
	}
	return all, nil
}

func (ld *ladder) result() float64 {
	if len(ld.passed) == 0 {
		return ld.bisected
	}
	return median(ld.passed)
}

// passes reports whether a ladder probe met the tail limit without a
// growing backlog. Both are judged on thirds of the probe and the median
// third taken, so one stall from outside the program cannot fail a rung:
// the tail is the median of the thirds' tail percentiles, and the backlog
// grows when the median connection wait in the last third exceeds the
// limit.
func passes(w workload, outs []*outcome) (bool, float64, float64) {
	limit := time.Duration(w.LimitMs * float64(time.Millisecond))
	var tails []float64
	var wait []float64
	for k := 0; k < 3; k++ {
		third := outs[k*len(outs)/3 : (k+1)*len(outs)/3]
		t, _ := tailLatency(third, w.TailPct)
		tails = append(tails, float64(t))
		if k == 2 {
			for _, o := range third {
				wait = append(wait, float64(o.connWait))
			}
		}
	}
	return median(tails) <= float64(limit) && median(wait) <= float64(limit), ms(time.Duration(median(tails))), ms(time.Duration(median(wait)))
}

// okCount counts 2xx outcomes (the verifier later fails wrong ones).
func okCount(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		if o.err == nil && o.code == http.StatusOK {
			n++
		}
	}
	return n
}

// tailLatency is the pct-th percentile latency with failed requests
// counted as infinitely late, and how many samples lie beyond it.
func tailLatency(outs []*outcome, pct float64) (time.Duration, int) {
	lat := latencies(outs)
	t := percentile(lat, pct)
	beyond := 0
	for _, x := range lat {
		if x > t {
			beyond++
		}
	}
	return time.Duration(t * float64(time.Millisecond)), beyond
}

// latencies in ms; failures are +Inf so they miss every limit.
func latencies(outs []*outcome) []float64 {
	lat := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.err != nil || o.code != http.StatusOK {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(o.latency()))
	}
	return lat
}

func verifyAll(vf *verifier, outs []*outcome, steps bool) []verdict {
	vds := make([]verdict, len(outs))
	for i, o := range outs {
		if steps {
			vds[i] = vf.checkStep(o)
		} else {
			vds[i] = vf.check(o)
		}
	}
	return vds
}

// describe renders an outcome's failure for the run's notes.
func describe(o *outcome) string {
	if o.err != nil {
		return o.err.Error()
	}
	return fmt.Sprintf("HTTP %d: %.200s", o.code, o.resp)
}

// endToEnd fills the --trace 0 metrics from the main phase. It fails when
// a window has fewer samples beyond the tail percentile than the workload
// asks for, since its tail would then be one or two requests.
func endToEnd(res *result, w workload, main phase, mainVds []verdict, setup, maxRate float64) error {
	lat := latencies(main.outs)
	limit := w.LimitMs
	within, verified := 0, 0
	var ratios []float64
	for i, o := range main.outs {
		if !mainVds[i].ok {
			continue
		}
		verified++
		ratios = append(ratios, mainVds[i].ratios...)
		if ms(o.latency()) <= limit {
			within++
		}
	}
	// Percentiles are taken per window of consecutive requests and the
	// window_pct-th percentile over windows reported, so a stall from
	// outside the program moves some windows rather than the figure. Such
	// stalls only ever add latency: where they come often, the workload
	// reports its least disturbed window.
	windows := max(1, w.Windows)
	var p50s, tails []float64
	beyond := len(lat)
	for k := 0; k < windows; k++ {
		win := main.outs[k*len(main.outs)/windows : (k+1)*len(main.outs)/windows]
		p50s = append(p50s, percentile(latencies(win), 50))
		t, b := tailLatency(win, w.TailPct)
		tails = append(tails, ms(t))
		beyond = min(beyond, b)
	}
	if beyond < w.TailMinBeyond {
		return fmt.Errorf("latency_tail_ms: a window of %d requests has %d samples beyond p%g, fewer than the %d needed",
			len(main.outs)/windows, beyond, w.TailPct, w.TailMinBeyond)
	}
	p50, tail := percentile(p50s, w.WindowPct), percentile(tails, w.WindowPct)
	span := main.elapsed
	res.add("setup_s", setup, "s")
	res.add("latency_p50_ms", p50, "ms")
	res.add("latency_tail_ms", tail, "ms")
	res.add("throughput_rps", float64(verified)/span.Seconds(), "1/s")
	res.add("max_rate_rps", maxRate, "1/s")
	res.add("within_limit_frac", float64(within)/float64(max(1, len(main.outs))), "ratio")
	res.add("cost_ratio_mean", mean(ratios), "ratio")
	res.add("heap_peak_mb", main.heapMB, "MB")
	loop := "open"
	if len(main.outs) > 0 && main.outs[0].closedLoop {
		loop = "closed"
	}
	res.note("main phase: %s loop, %d requests over %.2fs", loop, len(main.outs), span.Seconds())
	res.note("latency_p50_ms and latency_tail_ms (p%g) are percentile %g over %d windows with at least %d samples beyond the tail (need >= %d); limit %g ms",
		w.TailPct, w.WindowPct, windows, beyond, w.TailMinBeyond, w.LimitMs)
	return nil
}

// phaseSpan is the time from the first request's due time (or send, in a
// closed loop) to the last completion.
func phaseSpan(outs []*outcome) time.Duration {
	var first, last time.Time
	for _, o := range outs {
		t := o.due
		if o.closedLoop {
			t = o.sent
		}
		if first.IsZero() || t.Before(first) {
			first = t
		}
		if o.done.After(last) {
			last = o.done
		}
	}
	return last.Sub(first)
}

// prepareSnapshot plays the state a previous server process would leave:
// the first steps of every chain plus other mid-size instances, then writes
// the session snapshot the measured server boots from. The chains' bases and
// costs carry on from there, and their problems are registered with the
// verifier.
func prepareSnapshot(in *inputs, path string, vf *verifier, edit *editLoop, steps int) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	srv, err := server.New(server.Config{SnapshotPath: path, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	srv.BootRestore(nil)
	h := srv.Handler()
	post := func(body []byte) (string, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		o := &outcome{code: rec.Code, resp: rec.Body.Bytes()}
		if o.code != http.StatusOK {
			return "", fmt.Errorf("snapshot preparation: HTTP %d: %.200s", o.code, o.resp)
		}
		return fingerprintOf(o), nil
	}
	for i, ch := range in.chains {
		if edit.bases[i], err = post(ch.stepBody(ch.costs0, "")); err != nil {
			return err
		}
		p, v, err := vf.rp.resolve(0, &ch.req)
		if err != nil || v != secureview.Set {
			return fmt.Errorf("verifier cannot derive chain %d: %v", ch.idx, err)
		}
		vf.chains = append(vf.chains, &chainRef{p: p, ch: ch})
	}
	for s := 0; s < steps; s++ {
		for i := range in.chains {
			_, body := edit.advance(i)
			if edit.bases[i], err = post(body); err != nil {
				return err
			}
		}
	}
	for _, r := range in.snapExtra {
		if _, err := post(r.body); err != nil {
			return err
		}
	}
	_, err = srv.WriteSnapshot()
	return err
}
