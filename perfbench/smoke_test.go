package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the output against.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

// TestSmoke runs every workload briefly at a low rate, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that no request failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.json %d", len(spec.Workloads), len(ws))
	}
	names := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names[m.Name] = true
	}
	for _, bw := range spec.Workloads {
		w, ok := ws[bw.Name]
		if !ok {
			t.Fatalf("workload %s has no entry in workloads.json", bw.Name)
		}
		for _, p := range w.Predictions {
			for _, m := range append([]string{p.Layer}, p.Moves...) {
				if !names[m] {
					t.Errorf("%s: prediction names %q, which BENCHMARK.json does not list", bw.Name, m)
				}
			}
		}
		// Low rate, short run, one set-up; too short a run for the tail's
		// sample count.
		w.RateRPS /= 4
		w.TailMinBeyond = 0
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(bw.Name, w, 7, 3, trace, 1)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", bw.Name, trace, err)
			}
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", bw.Name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", bw.Name, trace, got.Correct, got.Attempted, got.Failed, out.String())
			}
			if !strings.Contains(out.String(), "failed_frac = 0.000000 ratio") {
				t.Errorf("%s trace=%v: failed_frac is not printed as 0", bw.Name, trace)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", bw.Name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				if !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", bw.Name, trace, m.Name, g, ok, m.Unit)
				}
			}
		}
	}
}
