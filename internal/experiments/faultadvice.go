package experiments

import (
	"fmt"
	"strings"

	"datalife/internal/advisor"
	"datalife/internal/blockstats"
	"datalife/internal/dfl"
	"datalife/internal/faults"
	"datalife/internal/iotrace"
	"datalife/internal/sim"
)

// FaultAdviceRow is one (workflow, seed) cell of a fault sweep re-analyzed
// through the advisor: the measured DFL's content fingerprint, whether the
// advisor memo already held a plan for it, and the resulting plan summary.
type FaultAdviceRow struct {
	Workflow string
	Seed     uint64
	// Fingerprint is the measured DFL graph's content hash; seeds whose
	// faults left the measured lifecycle identical collide here.
	Fingerprint uint64
	// CacheHit reports that the advisor memo returned a previously computed
	// plan for this fingerprint+config, skipping re-analysis.
	CacheHit bool
	// Threads, Placements, and Locality summarize the plan.
	Threads    int
	Placements int
	Locality   float64
	// Err records a run that exhausted recovery; no plan is produced.
	Err string
}

// FaultSweepAnalyze runs the sweep demos under the schedule once per seed
// with a collector attached, builds each run's measured DFL graph, and plans
// placement through one shared advisor memo. Collection observes the same
// deterministic run FaultSweep times — it never perturbs event sequencing —
// and the memo means seeds that produce byte-identical lifecycles pay for
// analysis once: the sweep's re-planning cost scales with the number of
// *distinct* measured graphs, not the number of seeds.
func FaultSweepAnalyze(s Scale, sched *faults.Schedule, seeds []uint64) ([]FaultAdviceRow, error) {
	if len(seeds) == 0 {
		seeds = []uint64{sched.Seed}
	}
	memo := advisor.NewMemo()
	var rows []FaultAdviceRow
	for _, demo := range FaultDemos() {
		for _, seed := range seeds {
			fs, c, w, err := demo.Build(s)
			if err != nil {
				return nil, fmt.Errorf("experiments: fault advice %s: %w", demo.Name, err)
			}
			col, err := iotrace.NewCollector(blockstats.DefaultConfig())
			if err != nil {
				return nil, fmt.Errorf("experiments: fault advice %s: %w", demo.Name, err)
			}
			eng := &sim.Engine{FS: fs, Cluster: c, Col: col, Faults: sched.WithSeed(seed)}
			row := FaultAdviceRow{Workflow: demo.Name, Seed: seed}
			if _, err := eng.Run(w); err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			g := dfl.Build(col)
			plan, hit, err := memo.Plan(g, advisor.Config{Nodes: len(c.Nodes)})
			if err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			row.Fingerprint = g.Fingerprint()
			row.CacheHit = hit
			row.Threads = len(plan.Threads)
			row.Placements = len(plan.Placements)
			row.Locality = plan.LocalityScore(g)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FaultAdviceReport renders the re-analysis as the table dflrun -advise
// prints under the fault sweep.
func FaultAdviceReport(rows []FaultAdviceRow) string {
	var b strings.Builder
	b.WriteString("Fault-sweep DFL re-analysis (advisor memo keyed by graph hash):\n")
	fmt.Fprintf(&b, "%-10s %6s %18s %6s %8s %11s %9s\n",
		"workflow", "seed", "dfl-hash", "memo", "threads", "placements", "locality")
	hits := 0
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-10s %6d %18s  unrecovered: %s\n", r.Workflow, r.Seed, "-", r.Err)
			continue
		}
		memoState := "miss"
		if r.CacheHit {
			memoState = "hit"
			hits++
		}
		fmt.Fprintf(&b, "%-10s %6d %18x %6s %8d %11d %8.0f%%\n",
			r.Workflow, r.Seed, r.Fingerprint, memoState, r.Threads, r.Placements, 100*r.Locality)
	}
	fmt.Fprintf(&b, "memo: %d/%d runs reused a cached plan\n", hits, len(rows))
	return b.String()
}
