package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree
// with: which metric names each kind of run prints.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := runBenchmark(context.Background(), options{
		workload: workload,
		seed:     5,
		seconds:  1500 * time.Millisecond,
		trace:    trace,
		workdir:  t.TempDir(),
		setups:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.correct, res.attempted, res.failed, res.problems)
	}
	return res
}

// checkNames asserts a run printed exactly the metrics (and units) the
// benchmark file lists.
func checkNames(t *testing.T, r *report, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for name, unit := range want {
		m, ok := r.m[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case m.Unit != unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range r.m {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("metric set differs from BENCHMARK.json: missing %v, extra %v", missing, extra)
	}
}

func TestSmokeEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a store and serves it")
	}
	spec := loadSpec(t)
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	res := smokeRun(t, "hot-dashboard", false)
	checkNames(t, res.metrics, want)
	for name, m := range res.metrics.m {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
}

// TestSmokeWorkloads runs each workload briefly, traced, and checks it
// answers correctly and exercises the tier it exists to exercise.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a store and serves it")
	}
	spec := loadSpec(t)
	want := map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smokeRun(t, w.name, true)
			checkNames(t, res.metrics, want)
			v := func(name string) float64 { return res.metrics.m[name].Value }
			switch w.name {
			case "hot-dashboard":
				if got := v("serve.tier_share.cached"); got < 0.95 {
					t.Errorf("cached share %v, want >= 0.95", got)
				}
			case "cold-explore":
				if got := v("serve.tier_share.cached"); got > 0.05 {
					t.Errorf("cached share %v, want <= 0.05", got)
				}
				if v("evstore.computed_answers") == 0 || v("evstore.blocks_decoded") == 0 {
					t.Error("no computed answers decoded any block")
				}
			case "churn-dashboard":
				// The probe converging to the emitted count is part of
				// res.correct; here the refresh path must have run.
				if v("refresh.count") < 1 || v("freshness.samples") == 0 || v("ingest.events") == 0 {
					t.Errorf("refreshes %v, freshness samples %v, ingested %v",
						v("refresh.count"), v("freshness.samples"), v("ingest.events"))
				}
			case "coordinator-4shard":
				// Equality with the single node is part of res.correct.
				if v("coord.fanout_ms.p50") == 0 || v("coord.envelope_bytes.mean") == 0 {
					t.Error("no coordinator fan-out was traced")
				}
			}
		})
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
