package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// tinySizes run every workload in well under a second of measuring.
var tinySizes = map[string]int{
	"batch-collect": 12, "batch-analyze": 200, "serve-ingest": 400, "serve-mixed": 300,
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 2, seconds: 0.05, trace: trace, dir: t.TempDir(), size: tinySizes[w.name]}
			rep := runWorkload(w, cfg)
			rec := rep.record()
			if !rec.Correct {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, rec.Failed, rec.Attempted, rec.Failures)
				continue
			}
			nonzero := 0
			for _, d := range rep.defs() {
				m, ok := rec.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, d.name, m)
				}
				if m.Value != 0 {
					nonzero++
				}
			}
			if !trace && nonzero != len(endToEnd) {
				t.Errorf("%s: %d of %d end-to-end metrics are zero", w.name, len(endToEnd)-nonzero, len(endToEnd))
			}
			if trace && nonzero < 10 {
				t.Errorf("%s: only %d per-layer metrics measured: %v", w.name, nonzero, rec.Metrics)
			}
			if trace && (len(rep.spans) == 0 || rec.Metrics["trace.overhead_pct"].Value == 0) {
				t.Errorf("%s: traced run recorded %d spans", w.name, len(rep.spans))
			}
			ids := make(map[int64]bool)
			for _, s := range rep.spans {
				if ids[s.ID] || s.End < s.Start {
					t.Fatalf("%s: span %+v repeats an ID or ends before it starts", w.name, s)
				}
				ids[s.ID] = true
			}
		}
	}
}

func TestTamperedGoldenFailsTheRun(t *testing.T) {
	for _, w := range workloads[:2] { // the batch workloads
		name := w.name
		cfg := runConfig{seed: 1, seconds: 0.01, trace: true, size: tinySizes[name]}
		good := runWorkload(w, cfg)
		if !good.ok() {
			t.Fatalf("%s: %v", name, good.failures)
		}
		cfg.golden = map[string]string{goldenKey(name, cfg): strings.Repeat("0", 64)}
		bad := runWorkload(w, cfg)
		if bad.ok() || !strings.Contains(strings.Join(bad.failures, "\n"), "golden") {
			t.Errorf("%s: a tampered golden digest did not fail the run: %v", name, bad.failures)
		}
	}
}

// TestGoldenDigests checks the checked-in digests of the full-size batch
// workloads for seed 1, which every default run verifies.
func TestGoldenDigests(t *testing.T) {
	golden := parseGolden(goldenText)
	cfg := runConfig{seed: 1}
	for name, b := range map[string]batchBench{
		"batch-collect": batchCollect(cfg), "batch-analyze": batchAnalyze(cfg),
	} {
		pipe, err := b.setup()
		if err != nil {
			t.Fatal(err)
		}
		out, err := pipe(nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := golden[goldenKey(name, cfg)]; out.digest != want {
			t.Errorf("%s seed 1: digest %s, golden %q", name, out.digest, want)
		}
	}
}

type jsonMetric struct{ Name, Unit string }

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, dlbench has %s", got, workloadNames())
	}
	same := func(what string, got []jsonMetric, want []metricDef) {
		var a, b []string
		for _, m := range got {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			b = append(b, m.name+" "+m.unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s: BENCHMARK.json has %v, dlbench reports %v", what, a, b)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
