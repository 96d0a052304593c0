package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"secureview/internal/server"
)

// editLoop walks the edit chains: each closed-loop client owns a block of
// chains and sends their next steps round robin, chaining every response's
// fingerprint into the next step's base. Chain i's state is touched only by
// the client that owns it.
type editLoop struct {
	chains []*chain
	perCli int
	costs  [][]float64
	bases  []string
	step   []int // edits applied so far, per chain
	ids    atomic.Int64
}

func newEditLoop(chains []*chain, perClient int) *editLoop {
	e := &editLoop{chains: chains, perCli: perClient, bases: make([]string, len(chains)),
		step: make([]int, len(chains))}
	for _, ch := range chains {
		e.costs = append(e.costs, append([]float64(nil), ch.costs0...))
	}
	return e
}

// advance applies chain i's next edit and returns that step's number and
// request body, or a nil body once the chain's generated edits are used up.
func (e *editLoop) advance(i int) (int, []byte) {
	ch := e.chains[i]
	n := e.step[i]
	if n >= len(ch.edits) {
		return n, nil
	}
	e.step[i]++
	ed := ch.edits[n]
	e.costs[i][ed.attr] = editCost(ed.level)
	return n, ch.stepBody(e.costs[i], e.bases[i])
}

// stepRecord is what a run keeps of one edit step until the verifier reads
// it. The records are fixed-size and their storage is allocated before the
// clock starts, so the benchmark's own heap stays the same size however
// many steps the server completes. The step's costs are not kept: the
// verifier replays them from the chain's generated edits.
type stepRecord struct {
	sent, done time.Duration // since the drive started
	hidden     uint64        // bit a set: the chain's attrs[a] was hidden
	cost       float64
	lp, factor float64 // the answer's certificate
	id, chain  int32
	step       int32
	code       int16
	optimal    bool
	partial    bool
	based      bool  // the step named a base
	warm       bool  // the engine resumed from that base
	extra      int32 // index into stepLog.extras, or -1
}

// stepExtra holds what few steps carry: a failure, privatized modules, and
// in the traced phase the request body the replay re-reads.
type stepExtra struct {
	why        string // transport error, non-2xx reply, or why the answer is wrong
	wrong      bool   // the reply was 2xx but its answer could not be read back
	privatized []string
	body       []byte
}

// stepsPerClientSecond sizes the record storage: well above the ~1,200
// steps per second one client reaches on a 2-CPU machine. A faster server
// only grows the storage past it.
const stepsPerClientSecond = 3000

// stepLog is one drive's records, per client.
type stepLog struct {
	epoch  time.Time
	recs   [][]stepRecord
	extras [][]stepExtra
}

// drive runs one closed-loop client per connection until dur elapses, each
// sending its chains' next steps only after the previous reply.
func (e *editLoop) drive(c *client, clients int, dur time.Duration) *stepLog {
	log := &stepLog{recs: make([][]stepRecord, clients), extras: make([][]stepExtra, clients)}
	for k := range log.recs {
		log.recs[k] = make([]stepRecord, 0, int(dur.Seconds()*stepsPerClientSecond)+1)
	}
	keepBodies := c.trace != nil && c.trace.on.Load()
	log.epoch = time.Now()
	deadline := log.epoch.Add(dur)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			req := &request{} // reused: send reads its path and ID only
			for turn := 0; time.Now().Before(deadline); turn++ {
				i := k*e.perCli + turn%e.perCli
				based := e.bases[i] != ""
				n, body := e.advance(i)
				if body == nil {
					return
				}
				req.id, req.chain = int(e.ids.Add(1)), i
				o := outcome{req: req, body: body, closedLoop: true}
				c.send(&o)
				rec, x := e.record(&o, n, log.epoch)
				rec.based = based
				if keepBodies {
					if x == nil {
						x = &stepExtra{}
					}
					x.body = body
				}
				if x != nil {
					rec.extra = int32(len(log.extras[k]))
					log.extras[k] = append(log.extras[k], *x)
				}
				log.recs[k] = append(log.recs[k], rec)
			}
		}(k)
	}
	wg.Wait()
	return log
}

// record reads one step's reply into its record and moves the chain's base
// on to the reply's fingerprint.
func (e *editLoop) record(o *outcome, n int, epoch time.Time) (stepRecord, *stepExtra) {
	i := o.req.chain
	rec := stepRecord{sent: o.sent.Sub(epoch), done: o.done.Sub(epoch), id: int32(o.req.id),
		chain: int32(i), step: int32(n), code: int16(o.code), extra: -1}
	if o.err != nil || o.code != http.StatusOK {
		return rec, &stepExtra{why: describe(o)}
	}
	var r server.SolveResponse
	if err := json.Unmarshal(o.resp, &r); err != nil {
		return rec, &stepExtra{wrong: true, why: fmt.Sprintf("malformed response: %v", err)}
	}
	if r.Fingerprint != "" {
		e.bases[i] = r.Fingerprint
	}
	if r.Solver != "engine" {
		return rec, &stepExtra{wrong: true, why: fmt.Sprintf("answered by %q, not the engine", r.Solver)}
	}
	attrs := e.chains[i].attrs
	for _, h := range r.Hidden {
		a := 0
		for a < len(attrs) && attrs[a] != h {
			a++
		}
		if a == len(attrs) {
			return rec, &stepExtra{wrong: true, why: fmt.Sprintf("hid %q, which the chain's document does not have", h)}
		}
		rec.hidden |= 1 << a
	}
	rec.cost, rec.lp, rec.factor = r.Cost, r.Bound.LP, r.Bound.Factor
	rec.optimal, rec.partial, rec.warm = r.Optimal, r.Status == "partial" || r.Partial, r.Warm
	if len(r.Privatized) > 0 {
		return rec, &stepExtra{privatized: r.Privatized}
	}
	return rec, nil
}

// outcomes turns the records into outcomes for the latency and verifier
// passes, which run after the clock stops.
func (log *stepLog) outcomes() []*outcome {
	var outs []*outcome
	for k, recs := range log.recs {
		for j := range recs {
			rec := &recs[j]
			o := &outcome{req: &request{id: int(rec.id), chain: int(rec.chain)}, step: rec, code: int(rec.code),
				sent: log.epoch.Add(rec.sent), done: log.epoch.Add(rec.done), closedLoop: true}
			if rec.extra >= 0 {
				x := &log.extras[k][rec.extra]
				o.extra, o.body = x, x.body
				if x.why != "" && !x.wrong {
					o.err = fmt.Errorf("%s", x.why)
				}
			}
			outs = append(outs, o)
		}
	}
	return outs
}
