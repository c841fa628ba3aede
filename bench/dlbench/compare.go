package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged: its direction, and its regression bound
// as a share of the base median (negative when it has none).
type rule struct {
	name         string
	higherBetter bool
	bound        float64
}

func (s benchSpec) rules() []rule {
	var out []rule
	for _, m := range s.EndToEnd {
		out = append(out, rule{m.Name, m.Better == "higher", m.Bound})
	}
	for _, m := range s.PerLayer {
		out = append(out, rule{m.Name, m.Better == "higher", -1})
	}
	return out
}

// decide compares base runs a with candidate runs b by the choosing-metrics
// §8 rule. The candidate is better when it wins at least nine tenths of the
// pairs (a[i], b[i]), ties counting for neither, and the medians differ by
// more than the base's interquartile range. Otherwise, with a bound, it is
// worse when its median is worse than the base's by more than bound × the
// base median, and unresolved when either side's spread exceeds the bound
// and not every candidate run beats every base run. Without a bound it is
// worse by the mirror of the better rule. Anything else is the same.
func decide(a, b []float64, r rule) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	gain := func(x, y float64) float64 { // how much better y is than x
		if r.higherBetter {
			return y - x
		}
		return x - y
	}
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch g := gain(a[i], b[i]); {
		case g > 0:
			wins++
		case g < 0:
			losses++
		}
	}
	qa := quartiles(a)
	diff := gain(qa[1], median(b))
	iqr := qa[2] - qa[0]
	switch {
	case 10*wins >= 9*n && diff > iqr:
		return "better"
	case r.bound < 0:
		if 10*losses >= 9*n && -diff > iqr {
			return "worse"
		}
		return "same"
	case qa[1] != 0 && -diff/math.Abs(qa[1]) > r.bound:
		return "worse"
	case (spread(a) > r.bound || spread(b) > r.bound) && !allBetter(a, b, gain):
		return "unresolved"
	}
	return "same"
}

func allBetter(a, b []float64, gain func(x, y float64) float64) bool {
	for _, x := range a {
		for _, y := range b {
			if gain(x, y) <= 0 {
				return false
			}
		}
	}
	return true
}

// runCompare implements `dlbench compare`: it reads result records written
// with -out, groups them by workload, and prints one verdict per workload
// and metric. Exit status 1 means some metric is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var baseFiles, candFiles []string
	sep := -1
	for i, a := range fs.Args() {
		if a == "vs" {
			sep = i
		}
	}
	if sep > 0 && sep < fs.NArg()-1 {
		baseFiles, candFiles = fs.Args()[:sep], fs.Args()[sep+1:]
	} else {
		fmt.Fprintln(stderr, "usage: dlbench compare [-bench BENCHMARK.json] A.json... vs B.json...")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dlbench compare: %s: %v\n", *specPath, err)
		return 2
	}
	base, err := loadRecords(baseFiles)
	if err == nil {
		var cand map[string][]record
		if cand, err = loadRecords(candFiles); err == nil {
			return printComparison(stdout, spec.rules(), base, cand)
		}
	}
	fmt.Fprintf(stderr, "dlbench compare: %v\n", err)
	return 2
}

// loadRecords reads JSON-line records and groups them by workload.
func loadRecords(paths []string) (map[string][]record, error) {
	out := make(map[string][]record)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var rec record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

func printComparison(w io.Writer, rules []rule, base, cand map[string][]record) int {
	var names []string
	for n := range base {
		if _, ok := cand[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-14s %-30s %22s %22s %8s  %s\n", "workload", "metric", "base median [q1,q3]", "new median [q1,q3]", "change", "verdict")
	for _, wl := range names {
		for _, r := range rules {
			a, b := values(base[wl], r.name), values(cand[wl], r.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := decide(a, b, r)
			if v == "worse" {
				code = 1
			}
			qa, qb := quartiles(a), quartiles(b)
			change := 0.0
			if qa[1] != 0 {
				change = 100 * (qb[1] - qa[1]) / math.Abs(qa[1])
			}
			fmt.Fprintf(w, "%-14s %-30s %22s %22s %+7.1f%%  %s (n=%d/%d)\n", wl, r.name,
				fmtQ(qa), fmtQ(qb), change, v, len(a), len(b))
		}
	}
	return code
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g,%.4g]", q[1], q[0], q[2]) }

// values collects one metric across records, in record order.
func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
