package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"svqact/benchmarks/harness"
	"svqact/benchmarks/loadgen"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload's run.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	// invalid lists the reasons the run cannot be trusted (generator lag,
	// lost samples, leaked processes); any entry fails the run.
	invalid []string
	// metrics are the contract's metrics of this mode: the end-to-end set of
	// an untraced run, the per-layer set of a traced one.
	metrics []metric
	// notes are printed for the reader but are not part of the contract.
	notes []metric
	// budget is the traced pass's layer budget, printed after the metrics.
	budget string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.invalid) == 0 }

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(name string, value float64, unit string) {
	r.notes = append(r.notes, metric{name, value, unit})
}

// print writes every metric by name with its unit.
func (r *result) print(w io.Writer) {
	mode := "end-to-end"
	if r.traced {
		mode = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "== %s: %s ==\n", r.workload, mode)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if len(r.notes) > 0 {
		fmt.Fprintln(w, "-- diagnostics --")
		for _, m := range r.notes {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	if r.budget != "" {
		fmt.Fprint(w, r.budget)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
	for _, why := range r.invalid {
		fmt.Fprintf(w, "INVALID: %s\n", why)
	}
}

// contractJSON renders the one-line machine-readable result.
func (r *result) contractJSON() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		// Only a NaN or infinite value can fail to encode; name it.
		var bad []string
		for _, m := range r.metrics {
			if _, e := json.Marshal(m.value); e != nil {
				bad = append(bad, m.name)
			}
		}
		panic(fmt.Sprintf("svqbench: metrics without a finite value: %s", strings.Join(bad, ", ")))
	}
	return string(b)
}

// endToEnd lists the end-to-end metrics in report order; an untraced run
// prints exactly these.
var endToEnd = []string{"setup_s", "p50_ms", "p95_ms", "closed_qps", "cpu_ms_per_query", "peak_rss_mb", "paper_cost_per_query"}

// maxLagP99MS is the generator lateness beyond which a run is invalid: the
// schedule was not the one stated.
const maxLagP99MS = 10.0

// runWorkload sets a workload up, measures it (or traces it) and tears it
// down, checking that no process outlives the run.
func runWorkload(ctx context.Context, cfg runConfig, traced bool) (*result, error) {
	sys, err := setUp(ctx, cfg)
	if err != nil {
		return nil, err
	}
	pids := sys.dep.PIDs()
	var res *result
	if traced {
		res, err = sys.tracedResult(ctx)
	} else {
		res, err = sys.loadResult(ctx)
	}
	stopErr := sys.dep.Stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		res.invalid = append(res.invalid, stopErr.Error())
	}
	for _, pid := range pids {
		if harness.Alive(pid) {
			res.invalid = append(res.invalid, fmt.Sprintf("process %d outlived the run", pid))
		}
	}
	return res, nil
}

// speed returns the factor that brings a duration measured now to the
// reference host speed: the reference client CPU time per request over the
// one measured. A host running slower than the reference spends more CPU
// time on the same client work, so the factor is below one and measured
// durations shrink to what the reference host would have shown. In-process
// deployments share this process, whose CPU time is then not the client's.
func (s *system) speed(refMS, clientCPUs float64, requests int) float64 {
	if s.cfg.inProcess || refMS == 0 || clientCPUs <= 0 || requests == 0 {
		return 1
	}
	return refMS / (1000 * clientCPUs / float64(requests))
}

// loadResult measures the untraced run and derives the end-to-end metrics.
func (s *system) loadResult(ctx context.Context) (*result, error) {
	l, err := s.measure(ctx)
	if err != nil {
		return nil, err
	}
	res := &result{workload: s.cfg.spec.Name}
	c := s.counts

	res.add("setup_s", medianOf(s.setups, func(t setupTimes) float64 { return t.total }), "s")
	var lat, lag []float64
	var sent, missed, completed int
	var serverCPU, clientOpenCPU, clientClosedCPU float64
	for _, g := range l.segs {
		lat = append(lat, g.open.LatencyMS...)
		lag = append(lag, g.open.LagMS...)
		sent += len(g.open.LatencyMS)
		missed += g.open.Missed
		completed += g.closed.Completed
		serverCPU += g.closedCPUs
		clientOpenCPU += g.clientOpenCPUs
		clientClosedCPU += g.clientClosedCPUs
		res.failed += g.open.Failed + g.closed.Failed
	}
	// Time metrics are brought to the reference host speed segment by
	// segment: the host runs up to 30 % faster or slower from one stretch of
	// seconds to the next, and the load generator's own CPU time per
	// request — code no change may touch, on the same cores at the same
	// moments — says by how much.
	spec := s.cfg.spec
	openSpeed := func(g segment) float64 {
		return s.speed(spec.RefClientOpenMS, g.clientOpenCPUs, len(g.open.LatencyMS))
	}
	closedSpeed := func(g segment) float64 {
		return s.speed(spec.RefClientClosedMS, g.clientClosedCPUs, g.closed.Completed)
	}
	res.add("p50_ms", medianOf(l.segs, func(g segment) float64 { return openSpeed(g) * loadgen.Quantile(g.open.LatencyMS, 0.50) }), "ms")
	res.add("p95_ms", medianOf(l.segs, func(g segment) float64 { return openSpeed(g) * loadgen.Quantile(g.open.LatencyMS, 0.95) }), "ms")
	res.add("closed_qps", medianOf(l.segs, func(g segment) float64 { return g.closed.QPS() / closedSpeed(g) }), "ops/s")
	// CPU figures sum over all closed phases: /proc counts in 10 ms ticks,
	// too coarse for one segment.
	rawCPU := 1000 * serverCPU / float64(max(completed, 1))
	res.add("cpu_ms_per_query", rawCPU*s.speed(spec.RefClientClosedMS, clientClosedCPU, completed), "ms")
	res.add("peak_rss_mb", l.peakRSSMB, "MB")
	res.add("paper_cost_per_query", (c.inferences+c.sortedAccess+c.randomAccess)/float64(c.statements), "count")

	// Failures and diagnostics.
	res.attempted = len(s.setups)*c.statements + sent + completed
	res.note("raw.p50_ms", medianOf(l.segs, func(g segment) float64 { return loadgen.Quantile(g.open.LatencyMS, 0.50) }), "ms")
	res.note("raw.p95_ms", medianOf(l.segs, func(g segment) float64 { return loadgen.Quantile(g.open.LatencyMS, 0.95) }), "ms")
	res.note("raw.closed_qps", medianOf(l.segs, func(g segment) float64 { return g.closed.QPS() }), "ops/s")
	res.note("raw.cpu_ms_per_query", rawCPU, "ms")
	res.note("host.client_open_ms", 1000*clientOpenCPU/float64(max(sent, 1)), "ms")
	res.note("host.client_closed_ms", 1000*clientClosedCPU/float64(max(completed, 1)), "ms")
	res.note("host.slowdown", medianOf(l.segs, func(g segment) float64 { return 1 / closedSpeed(g) }), "ratio")
	res.note("loadgen.fail_ratio", float64(res.failed)/float64(res.attempted), "ratio")
	res.note("loadgen.slo_miss_ratio", float64(missed)/float64(max(sent, 1)), "ratio")
	res.note("loadgen.samples", float64(sent), "count")
	res.note("loadgen.lag_p99_ms", loadgen.Quantile(lag, 0.99), "ms")
	tail := loadgen.HighestSupported(len(lat))
	res.note(fmt.Sprintf("loadgen.p%g_ms", tail*100), loadgen.Quantile(lat, tail), "ms")
	res.note("loadgen.max_ms", loadgen.Quantile(lat, 1), "ms")
	res.note("cold_query_s", medianOf(s.setups, func(t setupTimes) float64 { return t.cold }), "s")
	res.note("setup.generate_s", medianOf(s.setups, func(t setupTimes) float64 { return t.generate }), "s")
	res.note("setup.start_s", medianOf(s.setups, func(t setupTimes) float64 { return t.start }), "s")
	res.note("setup.warmup_s", medianOf(s.setups, func(t setupTimes) float64 { return t.warmup }), "s")
	if s.cfg.spec.Ranked {
		res.note("setup.ingest_s", medianOf(s.setups, func(t setupTimes) float64 { return t.ingest }), "s")
		res.note("setup.split_s", medianOf(s.setups, func(t setupTimes) float64 { return t.split }), "s")
		res.note("ingest_clips_per_s", medianOf(s.setups, func(t setupTimes) float64 { return t.ingested.ClipsPerSecond() }), "clips/s")
	}
	res.note("detect.inferences_per_query", c.inferences/float64(c.statements), "count")
	res.note("rank.accesses_per_query", (c.sortedAccess+c.randomAccess)/float64(c.statements), "count")

	if sent != l.scheduled {
		res.invalid = append(res.invalid, fmt.Sprintf("open loop sent %d requests, the schedules held %d", sent, l.scheduled))
	}
	// In-process deployments share this process's cores with the generator;
	// they exist to smoke-test the harness, not to be measured.
	if p := loadgen.Quantile(lag, 0.99); p > maxLagP99MS && !s.cfg.inProcess {
		res.invalid = append(res.invalid, fmt.Sprintf("generator lag p99 %.3f ms exceeds %.1f ms", p, maxLagP99MS))
	}
	return res, nil
}
