package experiments

import (
	"fmt"
	"strings"

	"datalife/internal/blockstats"
	"datalife/internal/checkpoint"
	"datalife/internal/dfl"
	"datalife/internal/faults"
	"datalife/internal/iotrace"
	"datalife/internal/sim"
	"datalife/internal/vfs"
)

// The fault sweep runs two purpose-built workflows whose crash recovery
// exercises the two DFL-driven paths: "restage" loses a staged copy whose
// producing flow came off a shared tier (recovered by re-staging), and
// "rerun" loses an intermediate written straight to node-local shm
// (recovered by re-running the producer).

// faultDemo builds one sweep workflow on a fresh filesystem and cluster.
type faultDemo struct {
	Name  string
	Build func(s Scale) (*vfs.FS, *sim.Cluster, *sim.Workload, error)
}

func demoCompute(s Scale) float64 {
	if s == Small {
		return 100
	}
	return 600
}

func demoCluster() (*vfs.FS, *sim.Cluster, error) {
	fs := vfs.New()
	c, err := sim.BuildCluster(fs, sim.ClusterSpec{
		Name: "faultdemo", Nodes: 2, Cores: 2, DefaultTier: "nfs",
		Shared:     []*vfs.Tier{vfs.NewNFS("nfs")},
		LocalKinds: []sim.LocalTierSpec{{Kind: "shm"}},
	})
	return fs, c, err
}

// FaultDemos lists the sweep's workflows.
func FaultDemos() []faultDemo {
	const mb = 1 << 20
	return []faultDemo{
		{Name: "restage", Build: func(s Scale) (*vfs.FS, *sim.Cluster, *sim.Workload, error) {
			fs, c, err := demoCluster()
			if err != nil {
				return nil, nil, nil, err
			}
			if _, err := fs.CreateSized("input", "nfs", 64*mb); err != nil {
				return nil, nil, nil, err
			}
			w := &sim.Workload{Tasks: []*sim.Task{{
				Name: "analyze",
				Script: []sim.Op{
					sim.Stage("input", "local:shm"),
					sim.Compute(demoCompute(s)),
					sim.Read("input", 64*mb, mb),
					sim.Write("result", 16*mb, mb),
				},
			}}}
			return fs, c, w, nil
		}},
		{Name: "rerun", Build: func(s Scale) (*vfs.FS, *sim.Cluster, *sim.Workload, error) {
			fs, c, err := demoCluster()
			if err != nil {
				return nil, nil, nil, err
			}
			w := &sim.Workload{Tasks: []*sim.Task{
				{
					Name:       "produce",
					CreateTier: "local:shm",
					// The compute phase gives the producer a real re-run
					// cost, which is what checkpoint restores save.
					Script: []sim.Op{sim.Compute(10), sim.Write("mid", 64*mb, mb)},
				},
				{
					Name: "consume",
					Deps: []string{"produce"},
					Script: []sim.Op{
						sim.Compute(demoCompute(s)),
						sim.Read("mid", 64*mb, mb),
						sim.Write("final", 16*mb, mb),
					},
				},
			}}
			return fs, c, w, nil
		}},
	}
}

// CheckpointDemos extends FaultDemos with the ddmd-style pipeline the
// checkpoint comparison runs: a three-stage producer chain (sim_md → train →
// agent) whose node-local intermediates (traj, model) are exactly what the
// checkpoint planner protects. It is only swept in checkpoint mode so the
// plain sweep's output stays byte-identical.
func CheckpointDemos() []faultDemo {
	const mb = 1 << 20
	return append(FaultDemos(), faultDemo{
		Name: "ddmd",
		Build: func(s Scale) (*vfs.FS, *sim.Cluster, *sim.Workload, error) {
			fs, c, err := demoCluster()
			if err != nil {
				return nil, nil, nil, err
			}
			if _, err := fs.CreateSized("input", "nfs", 64*mb); err != nil {
				return nil, nil, nil, err
			}
			w := &sim.Workload{Tasks: []*sim.Task{
				{
					Name:       "sim_md",
					CreateTier: "local:shm",
					Script: []sim.Op{
						sim.Stage("input", "local:shm"),
						sim.Compute(10),
						sim.Read("input", 64*mb, mb),
						sim.Write("traj", 32*mb, mb),
					},
				},
				{
					Name:       "train",
					Deps:       []string{"sim_md"},
					CreateTier: "local:shm",
					Script: []sim.Op{
						sim.Compute(demoCompute(s)),
						sim.Read("traj", 32*mb, mb),
						sim.Write("model", 8*mb, mb),
					},
				},
				{
					Name: "agent",
					Deps: []string{"train"},
					Script: []sim.Op{
						sim.Compute(20),
						sim.Read("model", 8*mb, mb),
						sim.Write("report", 4*mb, mb),
					},
				},
			}}
			return fs, c, w, nil
		},
	})
}

// DefaultFaultSpec is the sweep's schedule when dflrun is given none: one
// node crash mid-compute plus a low transient-error rate on the shared tier.
const DefaultFaultSpec = "seed=1;crash=node0@40;ioerr=nfs:0.02"

// FaultSweepRow is one (workflow, seed) cell of a failure sweep.
type FaultSweepRow struct {
	Workflow        string
	Seed            uint64
	Baseline        float64 // fault-free makespan
	Makespan        float64
	Attempts        int // total attempts across tasks (== tasks when clean)
	Failures        int
	NodeCrashes     int
	LostFiles       int
	Restagings      int
	ProducerReruns  int
	RecoverySeconds float64
	// Mode distinguishes checkpoint-comparison rows: "" in a plain sweep,
	// ModeRecovery / ModeCheckpoint when a durable tier is being compared.
	Mode string
	// CheckpointCopies, CheckpointRestores, and CheckpointPlan are zero and
	// empty outside checkpoint mode.
	CheckpointCopies   int
	CheckpointRestores int
	CheckpointPlan     string
	// Err records a run that exhausted recovery (the typed error string);
	// the sweep reports it instead of aborting.
	Err string
}

// Sweep modes. A plain sweep's rows carry Mode "".
const (
	ModeRecovery   = "recovery"
	ModeCheckpoint = "checkpoint"
)

// RowKey identifies one sweep cell across runs — the unit of resume.
type RowKey struct {
	Workflow string
	Seed     uint64
	Mode     string
}

// Key returns the row's identity.
func (r FaultSweepRow) Key() RowKey { return RowKey{r.Workflow, r.Seed, r.Mode} }

// SweepOptions extend a fault sweep beyond the plain recovery comparison.
type SweepOptions struct {
	// Checkpoint names the durable tier for DFL-planned checkpoints. When
	// set, every (workflow, seed) cell runs twice — recovery-only and
	// checkpoint-enabled — and the sweep includes the ddmd pipeline demo.
	// Empty means a plain sweep, byte-identical to FaultSweep.
	Checkpoint string
}

// FaultSweep runs the demo workflows under the schedule once per seed,
// alongside a fault-free baseline. Same schedule and seeds ⇒ bit-identical
// rows.
func FaultSweep(s Scale, sched *faults.Schedule, seeds []uint64) ([]FaultSweepRow, error) {
	return FaultSweepResumable(s, sched, seeds, SweepOptions{}, nil, nil)
}

// FaultSweepResumable is FaultSweep with checkpoint comparison and
// crash-resumption. Cells present in done are emitted as-is without
// re-running (a demo whose cells are all done skips even its baseline and
// planning runs); freshly computed rows are passed to record (when non-nil)
// before the sweep continues, so a journaling caller has every finished row
// on disk when the process dies. Row order is deterministic — demos in sweep
// order, seeds in argument order, recovery before checkpoint — regardless of
// which cells were resumed.
func FaultSweepResumable(s Scale, sched *faults.Schedule, seeds []uint64, opts SweepOptions,
	done map[RowKey]FaultSweepRow, record func(FaultSweepRow) error) ([]FaultSweepRow, error) {
	if len(seeds) == 0 {
		seeds = []uint64{sched.Seed}
	}
	demos := FaultDemos()
	modes := []string{""}
	if opts.Checkpoint != "" {
		demos = CheckpointDemos()
		modes = []string{ModeRecovery, ModeCheckpoint}
	}
	memo := checkpoint.NewMemo()
	var rows []FaultSweepRow
	for _, demo := range demos {
		allDone := done != nil
		for _, seed := range seeds {
			for _, mode := range modes {
				if _, ok := done[RowKey{demo.Name, seed, mode}]; !ok {
					allDone = false
				}
			}
		}
		if allDone {
			for _, seed := range seeds {
				for _, mode := range modes {
					rows = append(rows, done[RowKey{demo.Name, seed, mode}])
				}
			}
			continue
		}

		fs, c, w, err := demo.Build(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault sweep %s: %w", demo.Name, err)
		}
		eng := &sim.Engine{FS: fs, Cluster: c}
		var col *iotrace.Collector
		if opts.Checkpoint != "" {
			// The fault-free baseline doubles as the planning run: its
			// measured DFL is what the checkpoint planner scores.
			if col, err = iotrace.NewCollector(blockstats.DefaultConfig()); err != nil {
				return nil, fmt.Errorf("experiments: fault sweep %s: %w", demo.Name, err)
			}
			eng.Col = col
		}
		base, err := eng.Run(w)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault sweep %s baseline: %w", demo.Name, err)
		}
		var policy *sim.CheckpointPolicy
		planSummary := ""
		if opts.Checkpoint != "" {
			tier, err := fs.Tier(opts.Checkpoint)
			if err != nil {
				return nil, fmt.Errorf("experiments: fault sweep checkpoint tier: %w", err)
			}
			plan, _, err := memo.Plan(dfl.Build(col), checkpoint.Config{
				Tier:    opts.Checkpoint,
				WriteBW: tier.WriteBW,
				// The schedule pins concrete crashes; plan for certain loss.
				CrashesPerHour: 0,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: fault sweep %s plan: %w", demo.Name, err)
			}
			policy = &sim.CheckpointPolicy{Tier: opts.Checkpoint, Files: plan.Files()}
			planSummary = plan.Summary()
		}

		for _, seed := range seeds {
			for _, mode := range modes {
				key := RowKey{demo.Name, seed, mode}
				if row, ok := done[key]; ok {
					rows = append(rows, row)
					continue
				}
				fs, c, w, err := demo.Build(s)
				if err != nil {
					return nil, fmt.Errorf("experiments: fault sweep %s: %w", demo.Name, err)
				}
				eng := &sim.Engine{FS: fs, Cluster: c, Faults: sched.WithSeed(seed)}
				row := FaultSweepRow{Workflow: demo.Name, Seed: seed, Mode: mode, Baseline: base.Makespan}
				if mode == ModeCheckpoint {
					eng.Checkpoint = policy
					row.CheckpointPlan = planSummary
				}
				res, err := eng.Run(w)
				if err != nil {
					row.Err = err.Error()
				} else {
					row.Makespan = res.Makespan
					for _, a := range res.Attempts {
						row.Attempts += a
					}
					row.Failures = len(res.Failures)
					row.NodeCrashes = res.NodeCrashes
					row.LostFiles = res.LostFiles
					row.Restagings = res.Restagings
					row.ProducerReruns = res.ProducerReruns
					row.RecoverySeconds = res.RecoverySeconds
					row.CheckpointCopies = res.CheckpointCopies
					row.CheckpointRestores = res.CheckpointRestores
				}
				if record != nil {
					if err := record(row); err != nil {
						return nil, fmt.Errorf("experiments: recording sweep row: %w", err)
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FaultSweepReport renders a sweep as the table dflrun prints.
func FaultSweepReport(sched *faults.Schedule, rows []FaultSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep: %s\n", sched.String())
	fmt.Fprintf(&b, "%-10s %6s %10s %10s %9s %9s %8s %5s %8s %6s %12s\n",
		"workflow", "seed", "baseline", "makespan", "attempts", "failures",
		"crashes", "lost", "restage", "rerun", "recovery(s)")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-10s %6d %10.2f %10s  unrecovered: %s\n",
				r.Workflow, r.Seed, r.Baseline, "-", r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %6d %10.2f %10.2f %9d %9d %8d %5d %8d %6d %12.2f\n",
			r.Workflow, r.Seed, r.Baseline, r.Makespan, r.Attempts, r.Failures,
			r.NodeCrashes, r.LostFiles, r.Restagings, r.ProducerReruns, r.RecoverySeconds)
	}
	return b.String()
}

// FaultSweepCheckpointReport renders a checkpoint-comparison sweep: each
// workflow's DFL-chosen checkpoint set, then its recovery-only and
// checkpoint-enabled rows side by side.
func FaultSweepCheckpointReport(sched *faults.Schedule, tier string, rows []FaultSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint fault sweep: %s (durable tier %s)\n", sched.String(), tier)
	fmt.Fprintf(&b, "%-10s %6s %-10s %10s %10s %8s %6s %7s %9s %12s\n",
		"workflow", "seed", "mode", "baseline", "makespan",
		"restage", "rerun", "ckpt-cp", "ckpt-rest", "recovery(s)")
	lastWf := ""
	for _, r := range rows {
		if r.Workflow != lastWf {
			lastWf = r.Workflow
			plan := "(none)"
			for _, p := range rows {
				if p.Workflow == r.Workflow && p.Mode == ModeCheckpoint && p.CheckpointPlan != "" {
					plan = p.CheckpointPlan
					break
				}
			}
			fmt.Fprintf(&b, "-- %s: checkpoint plan %s\n", r.Workflow, plan)
		}
		if r.Err != "" {
			fmt.Fprintf(&b, "%-10s %6d %-10s %10.2f %10s  unrecovered: %s\n",
				r.Workflow, r.Seed, r.Mode, r.Baseline, "-", r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %6d %-10s %10.2f %10.2f %8d %6d %7d %9d %12.2f\n",
			r.Workflow, r.Seed, r.Mode, r.Baseline, r.Makespan,
			r.Restagings, r.ProducerReruns, r.CheckpointCopies, r.CheckpointRestores,
			r.RecoverySeconds)
	}
	return b.String()
}
