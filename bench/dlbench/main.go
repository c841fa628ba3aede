// Command dlbench is the repository's end-to-end benchmark. It drives the
// same public entry points as `datalife -advise`, `datalife -load` and
// `datalife serve` over four seeded workloads, checks every output, and
// prints each metric by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	dlbench -workload NAME|all [-seed N] [-seconds S] [-trace 0|1]
//	        [-out FILE] [-spans FILE] [-dir DIR]
//	dlbench compare [-bench BENCHMARK.json] A.json... vs B.json...
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) alternates traced and untraced pipelines (batch) or rounds
// (serve), replays the serve layers afterwards, and reports the per-layer
// metrics, including the tracing overhead between the two. Exit status is 0
// when every check passed, 1 when one failed, and 2 on a usage error.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// setupReps is how many times a run sets up its workload; setup_s is the
// median and the last set-up is measured.
const setupReps = 5

// runConfig is one run's settings.
type runConfig struct {
	seed uint64
	// seconds is the measuring budget: batch pipelines or serve rounds
	// repeat until it is spent.
	seconds float64
	trace   bool
	// dir holds serve journals.
	dir string
	// size overrides the workload's size (tasks) when positive.
	size int
	// golden maps goldenKey to the expected batch pipeline digest.
	golden map[string]string
}

type workload struct {
	name string
	run  func(cfg runConfig, rep *report)
}

// workloads are listed, with why each exists, in BENCHMARK.json.
var workloads = []workload{
	{"batch-collect", func(cfg runConfig, rep *report) { runBatch(cfg, rep, batchCollect(cfg)) }},
	{"batch-analyze", func(cfg runConfig, rep *report) { runBatch(cfg, rep, batchAnalyze(cfg)) }},
	{"serve-ingest", func(cfg runConfig, rep *report) { runServe(cfg, rep, false) }},
	{"serve-mixed", func(cfg runConfig, rep *report) { runServe(cfg, rep, true) }},
}

//go:embed testdata/golden.txt
var goldenText string

// parseGolden reads "key: digest" lines; # starts a comment.
func parseGolden(text string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if k, v, ok := strings.Cut(line, ":"); ok {
			out[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	return out
}

// runWorkload runs one workload and returns its report.
func runWorkload(w workload, cfg runConfig) *report {
	rep := newReport(w.name, cfg)
	w.run(cfg, rep)
	return rep
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measuring budget per run")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	out := fs.String("out", "", "append each result record (one JSON line) to FILE, for compare")
	spansOut := fs.String("spans", "", "with -trace 1, write the spans to FILE as JSON")
	dir := fs.String("dir", os.TempDir(), "directory for serve journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "dlbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir,
		golden: parseGolden(goldenText)}

	code := 0
	var records []record
	spans := make(map[string][]span)
	for _, w := range selected {
		rep := runWorkload(w, cfg)
		rec := rep.record()
		if err := rec.print(stdout, rep.notes); err != nil {
			fmt.Fprintf(stderr, "dlbench: %v\n", err)
			return 1
		}
		if !rec.Correct {
			code = 1
		}
		records = append(records, rec)
		spans[w.name] = rep.spans
	}
	if *out != "" {
		if err := appendRecords(*out, records); err != nil {
			fmt.Fprintf(stderr, "dlbench: %v\n", err)
			return 1
		}
	}
	if *spansOut != "" && cfg.trace {
		if err := writeSpans(*spansOut, spans); err != nil {
			fmt.Fprintf(stderr, "dlbench: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// appendRecords appends one JSON line per record to path.
func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
