// Command perfbench is the served-path benchmark: it drives an in-process
// server.Handler over loopback HTTP with one of three generated workloads,
// verifies every answer against the library, and prints the end-to-end
// metrics (--trace 0) or, from a separate traced run, the per-layer ones
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 30 --trace 0
//
// The workloads, their rates, latency limits and tail percentiles, and the
// layer-to-end-to-end predictions live in workloads.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

//go:embed workloads.json
var workloadsJSON []byte

// workload is one entry of workloads.json: how the workload drives the
// server, how big its inputs are, and which end-to-end metrics each layer
// metric is predicted to move on it.
type workload struct {
	RateRPS       float64   `json:"rate_rps"`
	Clients       int       `json:"clients"`
	LimitMs       float64   `json:"limit_ms"`
	TailPct       float64   `json:"tail_pct"`
	TailMinBeyond int       `json:"tail_min_beyond"`
	MainFrac      float64   `json:"main_frac"`
	Ladder        []float64 `json:"ladder_rps"`
	Rounds        int       `json:"rounds"`
	Windows       int       `json:"windows"`
	WindowPct     float64   `json:"window_pct"`
	// hot-mix
	EngineMaxK int     `json:"engine_max_k"`
	BatchFrac  float64 `json:"batch_frac"`
	// cold-solve and edit-chain
	WarmRequests       int `json:"warm_requests"`
	SaturationRequests int `json:"saturation_requests"`
	Mix                struct {
		Corpus, SearchBench, Mega int
	} `json:"mix"`
	CorpusMinK int `json:"corpus_min_k"`
	CorpusMaxK int `json:"corpus_max_k"`
	// edit-chain
	ChainsPerClient int     `json:"chains_per_client"`
	StepsPerChain   int     `json:"steps_per_chain"`
	SnapshotSteps   int     `json:"snapshot_steps"`
	SnapshotExtra   int     `json:"snapshot_extra"`
	SessionMB       int64   `json:"session_mb"`
	VerifySample    float64 `json:"verify_sample"`
	Predictions     []struct {
		Layer string   `json:"layer"`
		Moves []string `json:"moves"`
	} `json:"predictions"`
}

func loadWorkloads() (map[string]workload, error) {
	var ws map[string]workload
	if err := json.Unmarshal(workloadsJSON, &ws); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return ws, nil
}

// setupRepeats is how many times a run sets the server up; setup_s is the
// median of their times.
const setupRepeats = 5

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports.
type result struct {
	attempted int
	failed    int // includes wrong
	wrong     int // 2xx answers that failed verification
	metrics   []metric
	notes     []string // human-readable lines printed before the JSON
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	ws, err := loadWorkloads()
	if err != nil {
		fail(err)
	}
	w, ok := ws[*name]
	if !ok {
		var names []string
		for n := range ws {
			names = append(names, n)
		}
		sort.Strings(names)
		fail(fmt.Errorf("unknown workload %q (have %v)", *name, names))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0|1"))
	}
	res, err := run(*name, w, *seed, *seconds, *trace == 1, setupRepeats)
	if err != nil {
		fail(err)
	}
	if err := report(os.Stdout, res); err != nil {
		fail(err)
	}
}

// report prints the notes and metrics for people, then the result object
// as the last line.
func report(out io.Writer, res *result) error {
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	fmt.Fprintf(out, "verified %d requests: %d failed, %d wrong answers; failed_frac = %.6f ratio\n",
		res.attempted, res.failed, res.wrong, float64(res.failed)/float64(max(1, res.attempted)))
	metrics := map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.wrong == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
