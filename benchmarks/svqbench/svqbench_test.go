package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"svqact/benchmarks/workload"
)

// smokeScale shrinks the world so the smoke stays fast; everything else —
// pools, oracle, both loops, the traced pass — is the real thing.
const smokeScale = 0.3

// Every workload for one second against in-process handlers: set-up with
// verification and timed load, then (unless -short) the traced pass, with
// every answer checked.
func TestSmokeEveryWorkloadInProcess(t *testing.T) {
	for _, spec := range workload.Specs {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			cfg := runConfig{
				spec: spec, seed: 3, seconds: 1, reps: 1, scale: smokeScale, inProcess: true,
				env:     workload.Env{NProc: 2, OutDir: t.TempDir()},
				workDir: t.TempDir(),
			}
			start := time.Now()
			res, err := runWorkload(context.Background(), cfg, traced)
			t.Logf("%s traced=%v: %v", spec.Name, traced, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", spec.Name, traced, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s (traced=%v): attempted %d failed %d invalid %v", spec.Name, traced, res.attempted, res.failed, res.invalid)
			}
			var line struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.contractJSON()), &line); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", spec.Name, err)
			}
			want := endToEnd
			if traced {
				want = nil
				for _, m := range perLayer {
					want = append(want, m.name)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", spec.Name, traced, len(line.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := line.Metrics[name]; !ok {
					t.Errorf("%s (traced=%v): metric %s missing", spec.Name, traced, name)
				}
			}
			if traced {
				checkIdleLayers(t, spec, line.Metrics)
			}
		}
	}
}

// checkIdleLayers asserts the predicted idle layers read zero.
func checkIdleLayers(t *testing.T, spec workload.Spec, m map[string]struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}) {
	t.Helper()
	zero := func(names ...string) {
		for _, n := range names {
			if m[n].Value != 0 {
				t.Errorf("%s: %s = %v, predicted idle", spec.Name, n, m[n].Value)
			}
		}
	}
	busy := func(names ...string) {
		for _, n := range names {
			if m[n].Value <= 0 {
				t.Errorf("%s: %s = %v, predicted busy", spec.Name, n, m[n].Value)
			}
		}
	}
	if spec.Ranked {
		zero("detect.inferences_per_query", "core.run_ms", "core.clips_per_s")
		busy("rank.accesses_per_query")
	} else {
		zero("rank.accesses_per_query", "rank.rvaq_ms")
		busy("detect.inferences_per_query", "core.clips_per_s")
	}
	if spec.Sharded {
		busy("cluster.topk_local_ms", "cluster.shard_requests_per_query")
	} else {
		zero("cluster.topk_local_ms", "cluster.shard_requests_per_query", "cluster.retries", "cluster.hedges")
	}
}

// BENCHMARK.json and the program must declare the same workloads and
// metrics, or the driver and the benchmark disagree about what a run prints.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workload.Specs) {
		t.Fatalf("%d workloads declared, the program has %d", len(m.Workloads), len(workload.Specs))
	}
	for i, w := range m.Workloads {
		if w.Name != workload.Specs[i].Name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workload.Specs[i].Name)
		}
		if w.Why != workload.Specs[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be the spec's, one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the program prints %d", len(m.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %q, the program's is %q", i, e.Name, endToEnd[i])
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is not declared")
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the program prints %d", len(m.PerLayer), len(perLayer))
	}
	for i, p := range m.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit || p.Better != perLayer[i].better {
			t.Errorf("per-layer metric %d is %+v, the program's is %+v", i, p, perLayer[i])
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}
