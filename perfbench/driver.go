package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request as the client saw it. Open-loop requests are
// timed from their due time; closed-loop ones from when they were sent.
type outcome struct {
	req        *request
	body       []byte // as sent
	due, sent  time.Time
	done       time.Time
	code       int
	resp       []byte
	err        error
	lag        time.Duration // generator lateness with a connection free
	connWait   time.Duration // wait for a free connection past the due time
	closedLoop bool
	// edit-chain steps only: the step's record and what few steps carry
	step  *stepRecord
	extra *stepExtra
}

// latency is the user-visible time: from due (open loop) or send (closed).
func (o *outcome) latency() time.Duration {
	if o.closedLoop {
		return o.done.Sub(o.sent)
	}
	return o.done.Sub(o.due)
}

// client sends requests over at most conns keep-alive connections.
type client struct {
	http  *http.Client
	base  string
	trace *tracer // nil: untraced
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 5 * time.Minute}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// send performs one request and fills the outcome's timing and response.
func (c *client) send(o *outcome) {
	hr, err := http.NewRequest(http.MethodPost, c.base+o.req.path(), bytes.NewReader(o.body))
	if err != nil {
		o.err = err
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	traced := c.trace != nil && c.trace.on.Load()
	if traced {
		hr.Header.Set(traceHeader, strconv.Itoa(o.req.id))
	}
	o.sent = time.Now()
	resp, err := c.http.Do(hr)
	if err == nil {
		o.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.code = resp.StatusCode
	}
	o.done = time.Now()
	o.err = err
	if traced {
		c.trace.record(o.req.id, "client", o.sent, o.done)
	}
}

// openLoop sends reqs at a constant arrival rate for dur over conns
// connections: request i is due at start + i/rate whatever happened to the
// ones before it, so a stall shows as latency of every request queued
// behind it. It returns the outcomes of every request that came due.
func (c *client) openLoop(reqs []*request, rate float64, dur time.Duration, conns int) ([]*outcome, error) {
	n := int(math.Floor(rate * dur.Seconds()))
	if n > len(reqs) {
		return nil, fmt.Errorf("open loop needs %d requests, %d generated", n, len(reqs))
	}
	outs := make([]*outcome, n)
	interval := float64(time.Second) / rate
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				o := &outcome{req: reqs[i], body: reqs[i].body}
				o.due = start.Add(time.Duration(float64(i) * interval))
				if now := time.Now(); now.Before(o.due) {
					time.Sleep(o.due.Sub(now))
					o.lag = time.Since(o.due)
				} else {
					o.connWait = now.Sub(o.due)
				}
				c.send(o)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs, nil
}

// closedLoop works through reqs in order with clients that each send their
// next request only after the previous reply.
func (c *client) closedLoop(clients int, reqs []*request) []*outcome {
	outs := make([]*outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &outcome{req: reqs[i], body: reqs[i].body, closedLoop: true}
				c.send(o)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// fingerprintOf extracts a solve response's fingerprint.
func fingerprintOf(o *outcome) string {
	if o == nil || o.code != http.StatusOK {
		return ""
	}
	var r struct {
		Fingerprint string `json:"fingerprint"`
	}
	if json.Unmarshal(o.resp, &r) != nil {
		return ""
	}
	return r.Fingerprint
}
