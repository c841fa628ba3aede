package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload. An
// "op" is one whole advise pipeline on the batch workloads, one 64-event
// Send up to its durable ack on serve-ingest, and one fresh query on
// serve-mixed. Throughput counts pipelines on the batch workloads and
// durably acknowledged events on the serve workloads.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics a traced run reports, on every workload. A layer
// a workload does not run reads 0.
var perLayer = []metricDef{
	{"advisor.advise_ms", "ms"},
	{"advisor.query_ms", "ms"},
	{"advisor.threads", "count"},
	{"cpa.bottlenecks_ms", "ms"},
	{"cpa.caterpillar_ms", "ms"},
	{"cpa.critical_path_ms", "ms"},
	{"cpa.query_ms", "ms"},
	{"dfl.build_ms", "ms"},
	{"dfl.edges", "count"},
	{"dfl.summary_query_ms", "ms"},
	{"dfl.vertices", "count"},
	{"iotrace.apply_us", "us"},
	{"iotrace.flows", "count"},
	{"iotrace.load_ms", "ms"},
	{"iotrace.overhead_pct", "%"},
	{"iotrace.record_ms", "ms"},
	{"journal.append_us", "us"},
	{"journal.bytes_per_event", "B"},
	{"journal.fsync_p50_us", "us"},
	{"journal.fsync_p99_us", "us"},
	{"patterns.analyze_ms", "ms"},
	{"patterns.benefits_ms", "ms"},
	{"patterns.opportunities", "count"},
	{"patterns.query_ms", "ms"},
	{"patterns.rank_ms", "ms"},
	{"report.render_ms", "ms"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"runtime.alloc_mb_per_pipeline", "MB"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.allocs_per_pipeline", "count"},
	{"serve.ack_p50_ms", "ms"},
	{"serve.ack_p99_ms", "ms"},
	{"serve.ack_residual_us", "us"},
	{"serve.query_residual_ms", "ms"},
	{"serve.stale_answers", "count"},
	{"sim.run_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// report accumulates one workload run's outcome.
type report struct {
	workload string
	seed     uint64
	traced   bool
	dir      string

	attempted, failed int
	failures          []string
	values            map[string]float64
	notes             []string
	spans             []span
}

func newReport(workload string, cfg runConfig) *report {
	return &report{workload: workload, seed: cfg.seed, traced: cfg.trace, dir: cfg.dir,
		values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a failed operation or correctness check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// noteTail notes the highest percentile of xs (ms) that has ten samples
// beyond it.
func (r *report) noteTail(what string, xs []float64) {
	if p := highestTail(len(xs)); p > 0 {
		v, _ := percentile(xs, p)
		r.note("%s tail p%g = %.4g ms over %d samples", what, p, v, len(xs))
	}
}

// setRSS records the process's peak resident set size so far.
func (r *report) setRSS() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.fail("getrusage: %v", err)
		return
	}
	r.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
}

// ok reports whether every operation and check passed.
func (r *report) ok() bool { return r.failed == 0 && r.attempted > 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out writes and compare reads: the result plus its
// context.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Env       env                    `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	Dir        string `json:"dir"`
}

// defs returns the metric list this run reports.
func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// metrics resolves the run's metric list. An end-to-end metric that was
// not measured, or any non-finite value, fails the run.
func (r *report) metrics() map[string]metricValue {
	out := make(map[string]metricValue)
	for _, d := range r.defs() {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			r.fail("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", d.name, v)
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func (r *report) record() record {
	ms := r.metrics()
	return record{
		Workload: r.workload, Seed: r.seed, Trace: r.traced,
		Env: env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			GoVersion: runtime.Version(), Dir: r.dir},
		Correct: r.ok(), Attempted: r.attempted, Failed: r.failed,
		Failures: r.failures, Metrics: ms,
	}
}

// print writes the human-readable table, then the result line.
func (rec record) print(w io.Writer, notes []string) error {
	fmt.Fprintf(w, "== dlbench %s seed=%d trace=%v  GOMAXPROCS=%d nproc=%d %s dir=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Env.GOMAXPROCS, rec.Env.NumCPU, rec.Env.GoVersion, rec.Env.Dir)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted,
		Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
