package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestDecide(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	latency := rule{name: "latency_p50_ms", bound: 0.1}
	throughput := rule{name: "throughput_per_s", higherBetter: true, bound: 0.1}
	noisy := []float64{100, 70, 130, 100, 60, 140, 100, 75, 125, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		r    rule
		want string
	}{
		{"identical", base, base, latency, "same"},
		{"within bound", base, scaled(base, 1.05), latency, "same"},
		{"faster", base, scaled(base, 0.9), latency, "better"},
		{"slower beyond bound", base, scaled(base, 1.15), latency, "worse"},
		{"throughput up", base, scaled(base, 1.1), throughput, "better"},
		{"throughput down", base, scaled(base, 0.85), throughput, "worse"},
		{"spread wider than bound", noisy, noisy, latency, "unresolved"},
		{"wide spread but every run better", noisy, scaled(noisy, 0.2), latency, "better"},
		// Fewer than nine tenths of the pairs won: not a gain.
		{"mostly faster", base, append(scaled(base[:8], 0.9), 103, 104), latency, "same"},
		{"no bound, slower", base, scaled(base, 1.3), rule{name: "x", bound: -1}, "worse"},
		{"no bound, close", base, scaled(base, 1.01), rule{name: "x", bound: -1}, "same"},
		{"zeros", []float64{0, 0}, []float64{0, 0}, rule{name: "x", bound: -1}, "same"},
	} {
		if got := decide(c.a, c.b, c.r); got != c.want {
			t.Errorf("%s: decide = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		var buf bytes.Buffer
		for _, v := range p50s {
			rec := record{Workload: "batch-collect", Metrics: map[string]metricValue{
				"latency_p50_ms": {Value: v, Unit: "ms"}}}
			if err := json.NewEncoder(&buf).Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", 100, 101, 99, 100, 100)
	b := write("b.json", 130, 131, 129, 130, 130)
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"latency_p50_ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := runCompare([]string{"-bench", spec, a, "vs", a}, &out, &errOut); code != 0 {
		t.Fatalf("a vs a exited %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), " same ") {
		t.Errorf("a vs a:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare([]string{"-bench", spec, a, "vs", b}, &out, &errOut); code != 1 {
		t.Fatalf("a vs b exited %d, want 1: %s", code, out.String())
	}
	if !strings.Contains(out.String(), " worse ") {
		t.Errorf("a vs b:\n%s", out.String())
	}
	if code := runCompare([]string{"-bench", spec, a, b}, &out, &errOut); code != 2 {
		t.Errorf("missing vs exited %d, want 2", code)
	}
}
