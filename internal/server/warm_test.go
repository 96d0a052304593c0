package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"secureview/internal/server"
	"secureview/internal/solve"
	"secureview/internal/spec"
)

// registerStall registers a stall solver for the test's lifetime.
func registerStall(t *testing.T, s *stallSolver) {
	t.Helper()
	solve.Register(s)
	t.Cleanup(func() { solve.Deregister(s.name) })
}

// postAsync fires a request from its own goroutine (test helpers must not
// t.Fatal off the test goroutine) and returns a channel yielding the status.
func postAsync(t *testing.T, ts *httptest.Server, path string, body any) <-chan int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

// allPrivateDoc is an engine-solvable (all-private) workflow: one private
// module over four attributes, so warm-start requests have a real candidate
// space to resume over. costsJSON parameterizes cost-only edits.
func allPrivateDoc(t *testing.T, costsJSON string) *spec.Document {
	t.Helper()
	doc, err := spec.Parse([]byte(`{
	  "name": "warmdemo",
	  "gamma": 2,
	  "costs": ` + costsJSON + `,
	  "modules": [
	    {
	      "name": "mix", "visibility": "private",
	      "inputs":  [{"name": "a1", "domain": 2}, {"name": "a2", "domain": 2}],
	      "outputs": [{"name": "b1", "domain": 2}, {"name": "b2", "domain": 2}],
	      "kind": "table",
	      "table": [
	        {"in": [0, 0], "out": [0, 0]},
	        {"in": [0, 1], "out": [1, 0]},
	        {"in": [1, 0], "out": [1, 1]},
	        {"in": [1, 1], "out": [0, 1]}
	      ]
	    }
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSolveWarmChaining drives the edit loop the warm-start API exists for:
// solve, echo the returned fingerprint as the next request's base, edit only
// costs, and keep getting byte-identical optima to cold solves — with the
// response's warm marker reporting whether the engine actually resumed.
func TestSolveWarmChaining(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})

	cold := func(costs, base string) server.SolveResponse {
		t.Helper()
		resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
			Spec: allPrivateDoc(t, costs), Solver: "engine", Variant: "set", Base: base,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return decodeSolve(t, raw)
	}

	first := cold(`{"a1": 1, "a2": 2, "b1": 3, "b2": 4}`, "")
	if first.Fingerprint == "" {
		t.Fatal("solve response carries no fingerprint")
	}
	if first.Warm {
		t.Fatal("cold solve marked warm")
	}

	// Same instance again, chaining on the fingerprint: must resume.
	again := cold(`{"a1": 1, "a2": 2, "b1": 3, "b2": 4}`, first.Fingerprint)
	if !again.Warm {
		t.Fatal("re-solve with a live base did not resume")
	}
	if again.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprint drifted across identical requests: %s vs %s",
			again.Fingerprint, first.Fingerprint)
	}
	if again.Cost != first.Cost || strings.Join(again.Hidden, ",") != strings.Join(first.Hidden, ",") {
		t.Fatalf("warm re-solve diverged: %+v vs %+v", again, first)
	}

	// Cost-only edit: same fingerprint, and the warm answer must match a
	// cold solve of the edited instance exactly.
	edited := `{"a1": 5, "a2": 1, "b1": 1, "b2": 2}`
	reference := cold(edited, "")
	warm := cold(edited, first.Fingerprint)
	if !warm.Warm {
		t.Fatal("cost-only edit did not resume from its base")
	}
	if warm.Fingerprint != first.Fingerprint {
		t.Fatalf("cost-only edit changed the fingerprint: %s vs %s", warm.Fingerprint, first.Fingerprint)
	}
	if warm.Cost != reference.Cost || strings.Join(warm.Hidden, ",") != strings.Join(reference.Hidden, ",") {
		t.Fatalf("warm edit answer %v (%g) != cold %v (%g)",
			warm.Hidden, warm.Cost, reference.Hidden, reference.Cost)
	}

	// A bogus base silently degrades to a cold solve.
	bogus := cold(edited, "no-such-fingerprint")
	if bogus.Warm {
		t.Fatal("unknown base reported warm")
	}
	if bogus.Cost != reference.Cost {
		t.Fatalf("cold-fallback answer diverged: %g vs %g", bogus.Cost, reference.Cost)
	}

	st := s.Session().Stats()
	if st.WarmHits == 0 || st.WarmMisses == 0 {
		t.Fatalf("warm traffic not visible in stats: %+v", st)
	}

	// Batch jobs chain the same way.
	resp, raw := post(t, ts, "/v1/batch", server.BatchRequest{Jobs: []server.SolveRequest{
		{Spec: allPrivateDoc(t, edited), Solver: "engine", Variant: "set", Base: first.Fingerprint},
		{Spec: allPrivateDoc(t, edited), Solver: "greedy", Variant: "set"},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var batch server.BatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if r := batch.Results[0].Response; r == nil || !r.Warm || r.Fingerprint != first.Fingerprint {
		t.Fatalf("batch engine job did not chain: %+v", batch.Results[0])
	}
	if r := batch.Results[1].Response; r == nil || r.Warm {
		t.Fatalf("greedy batch job claims a warm start: %+v", batch.Results[1])
	}
}

// TestColdSolveSaysWarmFalse: a cold solve states "warm":false on the wire
// rather than leaving the field out.
func TestColdSolveSaysWarmFalse(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, raw := post(t, ts, "/v1/solve", server.SolveRequest{
		Spec: allPrivateDoc(t, `{"a1": 1, "a2": 2, "b1": 3, "b2": 4}`), Solver: "engine", Variant: "set",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"warm":false`)) {
		t.Fatalf("cold solve body lacks \"warm\":false: %s", raw)
	}
}

// TestWarmEvictionFallsBackCold is the eviction race: under a budget too
// small to retain any warm state, a re-solve naming a just-returned
// fingerprint must take the cold path (warm:false) and still return the
// correct optimum.
func TestWarmEvictionFallsBackCold(t *testing.T) {
	// Budget of one byte: every committed entry — derived problems and warm
	// frontiers alike — is evicted immediately after accounting.
	sTiny, tiny := newTestServer(t, server.Config{SessionBytes: 1})
	_, ref := newTestServer(t, server.Config{})

	costs := `{"a1": 2, "a2": 1, "b1": 4, "b2": 3}`
	req := func(base string) server.SolveRequest {
		return server.SolveRequest{
			Spec: allPrivateDoc(t, costs), Solver: "engine", Variant: "set", Base: base,
		}
	}
	resp, raw := post(t, tiny, "/v1/solve", req(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	first := decodeSolve(t, raw)

	resp, raw = post(t, tiny, "/v1/solve", req(first.Fingerprint))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decodeSolve(t, raw)
	if out.Warm {
		t.Fatal("resumed from a frontier the budget cannot have retained")
	}

	resp, raw = post(t, ref, "/v1/solve", req(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference status %d: %s", resp.StatusCode, raw)
	}
	want := decodeSolve(t, raw)
	if out.Cost != want.Cost || strings.Join(out.Hidden, ",") != strings.Join(want.Hidden, ",") {
		t.Fatalf("cold fallback diverged: %v (%g) vs %v (%g)", out.Hidden, out.Cost, want.Hidden, want.Cost)
	}
	if st := sTiny.Session().Stats(); st.Evictions == 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("tiny session never evicted: %+v", st)
	}
}

// TestRetryAfterDerived pins the 429 hint: it scales with the rejected
// request's weight against a saturated gate instead of the historical
// hardcoded "1", and stays within [1, 30] seconds.
func TestRetryAfterDerived(t *testing.T) {
	stall := &stallSolver{
		name:    "test-stall-retry",
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	stallReq := server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "test-stall-retry",
	}
	registerStall(t, stall)
	_, ts := newTestServer(t, server.Config{MaxInFlight: 1, BatchWorkers: 8})

	done := postAsync(t, ts, "/v1/solve", stallReq)
	defer func() { close(stall.release); <-done }()
	<-stall.started

	// Single solve against 1/1 in flight: ceil(1·1/1) = 1.
	resp, _ := post(t, ts, "/v1/solve", stallReq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("solve Retry-After = %q, want \"1\"", got)
	}

	// A 5-job batch (weight 5) against the same saturation backs off
	// proportionally: ceil(5·1/1) = 5.
	jobs := make([]server.SolveRequest, 5)
	for i := range jobs {
		jobs[i] = stallReq
	}
	resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{Jobs: jobs})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	got := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(got)
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("batch Retry-After = %q, want an integer in [1, 30]", got)
	}
	if secs != 5 {
		t.Fatalf("batch Retry-After = %d, want 5 (weight 5 against a saturated gate)", secs)
	}
}

// TestAdmissionSurvivesMalformedTraffic is the slot-leak regression test:
// hammer every early-error path — oversized bodies, bad JSON, unservable
// specs, empty and oversized batches, batch jobs that fail derivation —
// then claim the FULL admission capacity in one batch. Any leaked slot
// fails the final claim.
func TestAdmissionSurvivesMalformedTraffic(t *testing.T) {
	const capacity = 2
	_, ts := newTestServer(t, server.Config{
		MaxInFlight: capacity, BatchWorkers: capacity,
		MaxBodyBytes: 4 << 10, MaxBatchJobs: 4,
	})
	rawPost := func(body []byte) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	okJob := server.SolveRequest{
		Generated: &server.GeneratedRef{Class: "sparse", Seed: 1},
		Solver:    "greedy", Variant: "set",
	}
	infeasible := server.SolveRequest{
		Spec: parseDoc(t), Solver: "exact", Variant: "set", Gamma: 99,
	}
	for i := 0; i < 20; i++ {
		// 413: body over MaxBodyBytes (valid JSON up to the limit, so the
		// size guard fires rather than the parser).
		huge := []byte(`{"solver": "` + strings.Repeat("x", 8<<10) + `"}`)
		if code := rawPost(huge); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body: status %d", code)
		}
		// 400: not JSON at all, then unknown fields.
		if code := rawPost([]byte("{nope")); code != http.StatusBadRequest {
			t.Fatalf("bad JSON: status %d", code)
		}
		if code := rawPost([]byte(`{"bogusField": 1}`)); code != http.StatusBadRequest {
			t.Fatalf("unknown field: status %d", code)
		}
		// 422: admitted, then derivation fails (Γ infeasible).
		resp, _ := post(t, ts, "/v1/solve", infeasible)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("infeasible spec: status %d", resp.StatusCode)
		}
		// Batch rejections before and after admission.
		resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty batch: status %d", resp.StatusCode)
		}
		resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{
			Jobs: make([]server.SolveRequest, 5),
		})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized batch: status %d", resp.StatusCode)
		}
		// Admitted batch whose every job fails derivation.
		resp, _ = post(t, ts, "/v1/batch", server.BatchRequest{
			Jobs: []server.SolveRequest{infeasible, infeasible},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failing batch: status %d", resp.StatusCode)
		}
	}

	// Full-weight claim: a batch needing every slot must still admit.
	resp, raw := post(t, ts, "/v1/batch", server.BatchRequest{
		Jobs: []server.SolveRequest{okJob, okJob},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-weight batch after malformed traffic: status %d: %s (leaked admission slots)",
			resp.StatusCode, raw)
	}
}
