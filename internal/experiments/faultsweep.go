package experiments

import (
	"errors"
	"fmt"
	"strings"

	"datalife/internal/advisor"
	"datalife/internal/blockstats"
	"datalife/internal/checkpoint"
	"datalife/internal/dfl"
	"datalife/internal/faults"
	"datalife/internal/iotrace"
	"datalife/internal/sim"
	"datalife/internal/vfs"
	"datalife/internal/workflows"
)

// A sweep runs one kind's scenarios under a fault schedule, one cell per
// (seed, mode), beside one fault-free baseline per scenario.
//
// KindFaults runs two purpose-built workflows whose crash recovery exercises
// the two DFL-driven paths: "restage" loses a staged copy whose producing
// flow came off a shared tier (recovered by re-staging), and "rerun" loses an
// intermediate written straight to node-local shm (recovered by re-running
// the producer). With a checkpoint tier every cell runs twice — recovery-only
// and with DFL-planned checkpoints — and a third demo, "ddmd", joins.
//
// KindNet runs the federated Belle II campaign (MC production at site A
// feeding an analysis cluster at site B over one WAN link) under a
// partition/degradation schedule, twice per seed: once with the schedule's
// own partition policy (stall: cross-site flows freeze and drain after the
// heal) and once with every partition forced fail-fast (crossing ops fail
// with FailPartition and retry with backoff). The pair demonstrates the
// triage distinction the recovery engine makes: a partition is transient —
// the bytes still exist on the far side, so retries re-stage nothing — while
// a node crash loses data and forces re-staging or producer re-runs.

// Sweep kinds. A journaled sweep writes <kind>.journal.
const (
	KindFaults = "faultsweep"
	KindNet    = "netsweep"
)

// DefaultFaultSpec is the fault sweep's schedule when dflrun is given none:
// one node crash mid-compute plus a low transient-error rate on the shared
// tier.
const DefaultFaultSpec = "seed=1;crash=node0@40;ioerr=nfs:0.02"

// DefaultNetFaultSpec is the netsweep schedule when dflrun is given none: a
// 20-second cut of the WAN core while analysis staging is in flight, a
// degraded-WAN window at quarter capacity over the campaign's tail, and 1%
// packet loss on the WAN link throughout.
const DefaultNetFaultSpec = "seed=1;partition=coreA|coreB@25-45;degrade=wan@50-80x0.25;loss=wan:0.01"

// Cell modes. A plain fault sweep's cells carry Mode "".
const (
	// ModeRecovery and ModeCheckpoint pair each fault-demo cell without and
	// with DFL-planned checkpoints to a durable tier.
	ModeRecovery   = "recovery"
	ModeCheckpoint = "checkpoint"
	// ModeStall runs the schedule as given: partitioned flows stall.
	ModeStall = "stall"
	// ModeFailFast forces every partition fail-fast: crossing ops fail
	// typed and retry.
	ModeFailFast = "failfast"
)

// Sweep is one seeded fault sweep. It is also its run journal's header, so a
// resume under any different field is refused.
type Sweep struct {
	// Kind selects the scenarios: KindFaults or KindNet.
	Kind string `json:"kind"`
	// Spec is the fault schedule, as faults.Schedule.String renders it; its
	// seed is the first one swept.
	Spec  string `json:"spec"`
	Scale Scale  `json:"scale"`
	// Seeds is how many consecutive seeds are swept.
	Seeds int `json:"seeds"`
	// Checkpoint names the durable tier for DFL-planned checkpoints (fault
	// sweeps only). When set, every cell runs recovery-only and
	// checkpoint-enabled, and the ddmd demo joins.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Advise re-analyzes the measured DFL of every cell a plain fault sweep
	// would run through one advisor memo keyed by the graph's content hash,
	// so seeds producing identical lifecycles reuse one cached plan.
	Advise bool `json:"advise,omitempty"`
}

// SweepRow is one (workflow, seed, mode) cell of a sweep. Columns its kind
// does not report stay zero.
type SweepRow struct {
	Workflow        string
	Seed            uint64
	Mode            string
	Baseline        float64 // fault-free makespan
	Makespan        float64
	Attempts        int // total attempts across tasks (== tasks when clean)
	Failures        int
	NodeCrashes     int
	LostFiles       int
	Restagings      int
	ProducerReruns  int
	PartitionStalls int
	WANBytes        uint64 // bytes carried by the wan link, retransmits included
	WANRetrans      uint64 // chunks retransmitted on the wan link
	RecoverySeconds float64
	// CheckpointCopies, CheckpointRestores, and CheckpointPlan are set on
	// ModeCheckpoint cells only.
	CheckpointCopies   int
	CheckpointRestores int
	CheckpointPlan     string
	// Fingerprint is an advised cell's measured DFL content hash; Threads,
	// Placements, and Locality summarize the advisor's plan for it.
	Fingerprint uint64
	Threads     int
	Placements  int
	Locality    float64
	// Err records a run that exhausted recovery (the typed error string);
	// the sweep reports it instead of aborting.
	Err string
}

// RowKey identifies one sweep cell across runs — the unit of resume.
type RowKey struct {
	Workflow string
	Seed     uint64
	Mode     string
}

// Key returns the row's identity.
func (r SweepRow) Key() RowKey { return RowKey{r.Workflow, r.Seed, r.Mode} }

// fill copies the run's outcome into the row.
func (r *SweepRow) fill(res *sim.Result) {
	r.Makespan = res.Makespan
	for _, a := range res.Attempts {
		r.Attempts += a
	}
	r.Failures = len(res.Failures)
	r.NodeCrashes = res.NodeCrashes
	r.LostFiles = res.LostFiles
	r.Restagings = res.Restagings
	r.ProducerReruns = res.ProducerReruns
	r.PartitionStalls = res.PartitionStalls
	r.WANBytes = res.LinkBytes["wan"]
	r.WANRetrans = res.LinkRetransmits["wan"]
	r.RecoverySeconds = res.RecoverySeconds
	r.CheckpointCopies = res.CheckpointCopies
	r.CheckpointRestores = res.CheckpointRestores
}

// scenario is one workflow a sweep runs: build returns a fresh engine over a
// fresh filesystem and cluster, and the workload to run on it.
type scenario struct {
	name  string
	build func(Scale) (*sim.Engine, *sim.Workload, error)
}

const mb = 1 << 20

func demoCompute(s Scale) float64 {
	if s == Small {
		return 100
	}
	return 600
}

// demoEngine builds the fault demos' two-node cluster, with a 64 MB "input"
// on nfs when withInput is set.
func demoEngine(withInput bool) (*sim.Engine, error) {
	fs := vfs.New()
	c, err := sim.BuildCluster(fs, sim.ClusterSpec{
		Name: "faultdemo", Nodes: 2, Cores: 2, DefaultTier: "nfs",
		Shared:     []*vfs.Tier{vfs.NewNFS("nfs")},
		LocalKinds: []sim.LocalTierSpec{{Kind: "shm"}},
	})
	if err != nil {
		return nil, err
	}
	if withInput {
		if _, err := fs.CreateSized("input", "nfs", 64*mb); err != nil {
			return nil, err
		}
	}
	return &sim.Engine{FS: fs, Cluster: c}, nil
}

// ddmdDemo is the checkpoint-only fault demo.
const ddmdDemo = "ddmd"

// faultDemos are the fault sweep's scenarios. The last, ddmd, runs only in
// checkpoint mode, so the plain sweep's output stays as it was.
var faultDemos = []scenario{
	{"restage", func(s Scale) (*sim.Engine, *sim.Workload, error) {
		eng, err := demoEngine(true)
		return eng, &sim.Workload{Tasks: []*sim.Task{{
			Name: "analyze",
			Script: []sim.Op{
				sim.Stage("input", "local:shm"),
				sim.Compute(demoCompute(s)),
				sim.Read("input", 64*mb, mb),
				sim.Write("result", 16*mb, mb),
			},
		}}}, err
	}},
	{"rerun", func(s Scale) (*sim.Engine, *sim.Workload, error) {
		eng, err := demoEngine(false)
		return eng, &sim.Workload{Tasks: []*sim.Task{
			{
				Name:       "produce",
				CreateTier: "local:shm",
				// The compute phase gives the producer a real re-run cost,
				// which is what checkpoint restores save.
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
		}}, err
	}},
	// A three-stage producer chain (sim_md → train → agent) whose node-local
	// intermediates (traj, model) are exactly what the checkpoint planner
	// protects.
	{ddmdDemo, func(s Scale) (*sim.Engine, *sim.Workload, error) {
		eng, err := demoEngine(true)
		return eng, &sim.Workload{Tasks: []*sim.Task{
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
		}}, err
	}},
}

// federated builds the network sweep's campaign on a fresh two-site cluster.
func federated(s Scale) (*sim.Engine, *sim.Workload, error) {
	p := workflows.DefaultFederated()
	if s == Small {
		// Shrink task counts only: virtual compute seconds are free, and
		// keeping the paper-scale timing means the default fault windows
		// overlap the campaign identically at both scales.
		p.MCTasks, p.PoolDatasets, p.AnalysisTasks = 8, 8, 4
	}
	fs := vfs.New()
	c, tp, err := workflows.FederatedCluster(fs, p)
	if err != nil {
		return nil, nil, err
	}
	spec := workflows.FederatedBelle2(p)
	if err := spec.Seed(fs, "storeA"); err != nil {
		return nil, nil, err
	}
	// Fail-fast partition retries must be able to outlast the cut: with the
	// default 4 attempts the capped backoff covers ~7 virtual seconds, far
	// less than a realistic partition window. Eight attempts back off
	// through ~2 minutes.
	return &sim.Engine{FS: fs, Cluster: c, Topology: tp,
		Retry: faults.RetryPolicy{MaxAttempts: 8}}, spec.Workload, nil
}

// scenarios returns the sweep's scenarios and the modes each one's cells run
// under, in row order.
func (s Sweep) scenarios() ([]scenario, []string, error) {
	switch s.Kind {
	case KindFaults:
		if s.Checkpoint == "" {
			return faultDemos[:2], []string{""}, nil
		}
		return faultDemos, []string{ModeRecovery, ModeCheckpoint}, nil
	case KindNet:
		if s.Checkpoint != "" || s.Advise {
			return nil, nil, fmt.Errorf("experiments: a %s sweep takes no checkpoint tier or advice", s.Kind)
		}
		return []scenario{{"federated", federated}}, []string{ModeStall, ModeFailFast}, nil
	}
	return nil, nil, fmt.Errorf("experiments: unknown sweep kind %q", s.Kind)
}

// advised reports whether a cell's run is re-analyzed through the advisor:
// with Advise, exactly the cells a plain fault sweep runs.
func (s Sweep) advised(k RowKey) bool {
	return s.Advise && k.Mode != ModeCheckpoint && k.Workflow != ddmdDemo
}

// Run runs the sweep. Same sweep ⇒ bit-identical rows. Cells present in done
// are emitted as-is without re-running (a scenario whose cells are all done
// skips even its baseline); freshly computed rows are passed to record (when
// non-nil) before the sweep continues, so a journaling caller has every
// finished row on disk when the process dies. Rows come in scenario, then
// seed, then mode order, regardless of which cells were resumed.
//
// A cell whose run exhausts recovery becomes a row with Err set. A schedule
// the scenario's engine cannot even start (sim.ErrConfig) aborts the sweep.
func (s Sweep) Run(done map[RowKey]SweepRow, record func(SweepRow) error) ([]SweepRow, error) {
	sched, err := faults.ParseSpec(s.Spec)
	if err != nil {
		return nil, err
	}
	scenarios, modes, err := s.scenarios()
	if err != nil {
		return nil, err
	}
	failFast := *sched
	failFast.Partitions = make([]faults.Partition, len(sched.Partitions))
	for i, pt := range sched.Partitions {
		pt.FailFast = true
		failFast.Partitions[i] = pt
	}
	plans, advice := checkpoint.NewMemo(), advisor.NewMemo()
	var rows []SweepRow
	for _, sc := range scenarios {
		var keys []RowKey
		pending := false
		for i := 0; i < s.Seeds; i++ {
			for _, mode := range modes {
				k := RowKey{sc.name, sched.Seed + uint64(i), mode}
				keys = append(keys, k)
				if _, ok := done[k]; !ok {
					pending = true
				}
			}
		}
		if !pending {
			for _, k := range keys {
				rows = append(rows, done[k])
			}
			continue
		}

		eng, w, err := sc.build(s.Scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", s.Kind, sc.name, err)
		}
		if s.Checkpoint != "" {
			// The fault-free baseline doubles as the planning run: its
			// measured DFL is what the checkpoint planner scores.
			if eng.Col, err = iotrace.NewCollector(blockstats.DefaultConfig()); err != nil {
				return nil, err
			}
		}
		base, err := eng.Run(w)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s baseline: %w", s.Kind, sc.name, err)
		}
		var policy *sim.CheckpointPolicy
		planSummary := ""
		if s.Checkpoint != "" {
			tier, err := eng.FS.Tier(s.Checkpoint)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s checkpoint tier: %w", s.Kind, err)
			}
			plan, _, err := plans.Plan(dfl.Build(eng.Col), checkpoint.Config{
				Tier:    s.Checkpoint,
				WriteBW: tier.WriteBW,
				// The schedule pins concrete crashes; plan for certain loss.
				CrashesPerHour: 0,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s plan: %w", s.Kind, sc.name, err)
			}
			policy = &sim.CheckpointPolicy{Tier: s.Checkpoint, Files: plan.Files()}
			planSummary = plan.Summary()
		}

		for _, k := range keys {
			if row, ok := done[k]; ok {
				rows = append(rows, row)
				continue
			}
			eng, w, err := sc.build(s.Scale)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s: %w", s.Kind, sc.name, err)
			}
			eng.Faults = sched.WithSeed(k.Seed)
			if k.Mode == ModeFailFast {
				eng.Faults = failFast.WithSeed(k.Seed)
			}
			row := SweepRow{Workflow: k.Workflow, Seed: k.Seed, Mode: k.Mode, Baseline: base.Makespan}
			if k.Mode == ModeCheckpoint {
				eng.Checkpoint = policy
				row.CheckpointPlan = planSummary
			}
			if s.advised(k) {
				// A collector observes the run without perturbing it, so the
				// advised cell is the same run an unadvised sweep times.
				if eng.Col, err = iotrace.NewCollector(blockstats.DefaultConfig()); err != nil {
					return nil, err
				}
			}
			res, err := eng.Run(w)
			switch {
			case errors.Is(err, sim.ErrConfig):
				return nil, fmt.Errorf("experiments: %s %s seed %d: %w", s.Kind, k.Workflow, k.Seed, err)
			case err != nil:
				row.Err = err.Error()
			default:
				row.fill(res)
			}
			if eng.Col != nil && row.Err == "" {
				g := dfl.Build(eng.Col)
				// The memo spares re-planning a lifecycle already seen; the
				// report derives each row's hit from row order, so a
				// resumed sweep reports the same hits.
				plan, _, err := advice.Plan(g, advisor.Config{Nodes: len(eng.Cluster.Nodes)})
				if err != nil {
					return nil, fmt.Errorf("experiments: %s %s seed %d advice: %w", s.Kind, k.Workflow, k.Seed, err)
				}
				row.Fingerprint = g.Fingerprint()
				row.Threads = len(plan.Threads)
				row.Placements = len(plan.Placements)
				row.Locality = plan.LocalityScore(g)
			}
			if record != nil {
				if err := record(row); err != nil {
					return nil, fmt.Errorf("experiments: recording sweep row: %w", err)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Report renders the sweep's rows as the tables dflrun prints: the network,
// checkpoint-comparison, or plain fault table, followed by the advice table
// when Advise is set.
func (s Sweep) Report(rows []SweepRow) string {
	var b strings.Builder
	switch {
	case s.Kind == KindNet:
		netReport(&b, s.Spec, rows)
	case s.Checkpoint != "":
		checkpointReport(&b, s.Spec, s.Checkpoint, rows)
	default:
		faultReport(&b, s.Spec, rows)
	}
	if s.Advise {
		b.WriteString("\n")
		s.adviceReport(&b, rows)
	}
	return b.String()
}

func faultReport(b *strings.Builder, spec string, rows []SweepRow) {
	fmt.Fprintf(b, "Fault sweep: %s\n", spec)
	fmt.Fprintf(b, "%-10s %6s %10s %10s %9s %9s %8s %5s %8s %6s %12s\n",
		"workflow", "seed", "baseline", "makespan", "attempts", "failures",
		"crashes", "lost", "restage", "rerun", "recovery(s)")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(b, "%-10s %6d %10.2f %10s  unrecovered: %s\n",
				r.Workflow, r.Seed, r.Baseline, "-", r.Err)
			continue
		}
		fmt.Fprintf(b, "%-10s %6d %10.2f %10.2f %9d %9d %8d %5d %8d %6d %12.2f\n",
			r.Workflow, r.Seed, r.Baseline, r.Makespan, r.Attempts, r.Failures,
			r.NodeCrashes, r.LostFiles, r.Restagings, r.ProducerReruns, r.RecoverySeconds)
	}
}

// checkpointReport renders each workflow's DFL-chosen checkpoint set, then
// its recovery-only and checkpoint-enabled rows side by side.
func checkpointReport(b *strings.Builder, spec, tier string, rows []SweepRow) {
	fmt.Fprintf(b, "Checkpoint fault sweep: %s (durable tier %s)\n", spec, tier)
	fmt.Fprintf(b, "%-10s %6s %-10s %10s %10s %8s %6s %7s %9s %12s\n",
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
			fmt.Fprintf(b, "-- %s: checkpoint plan %s\n", r.Workflow, plan)
		}
		if r.Err != "" {
			fmt.Fprintf(b, "%-10s %6d %-10s %10.2f %10s  unrecovered: %s\n",
				r.Workflow, r.Seed, r.Mode, r.Baseline, "-", r.Err)
			continue
		}
		fmt.Fprintf(b, "%-10s %6d %-10s %10.2f %10.2f %8d %6d %7d %9d %12.2f\n",
			r.Workflow, r.Seed, r.Mode, r.Baseline, r.Makespan,
			r.Restagings, r.ProducerReruns, r.CheckpointCopies, r.CheckpointRestores,
			r.RecoverySeconds)
	}
}

// netReport lists the stall cells, then the fail-fast ones.
func netReport(b *strings.Builder, spec string, rows []SweepRow) {
	fmt.Fprintf(b, "Network fault sweep: %s\n", spec)
	b.WriteString("federated belle2: siteA MC production feeding siteB analysis over the wan link\n")
	fmt.Fprintf(b, "%-9s %6s %10s %10s %9s %9s %7s %8s %10s %8s %12s\n",
		"scenario", "seed", "baseline", "makespan", "attempts", "failures",
		"stalls", "restage", "wan-MB", "wan-retx", "recovery(s)")
	for _, mode := range []string{ModeStall, ModeFailFast} {
		for _, r := range rows {
			switch {
			case r.Mode != mode:
			case r.Err != "":
				fmt.Fprintf(b, "%-9s %6d %10.2f %10s  unrecovered: %s\n",
					r.Mode, r.Seed, r.Baseline, "-", r.Err)
			default:
				fmt.Fprintf(b, "%-9s %6d %10.2f %10.2f %9d %9d %7d %8d %10.1f %8d %12.2f\n",
					r.Mode, r.Seed, r.Baseline, r.Makespan, r.Attempts, r.Failures,
					r.PartitionStalls, r.Restagings, float64(r.WANBytes)/(1<<20), r.WANRetrans,
					r.RecoverySeconds)
			}
		}
	}
}

// adviceReport renders the advised cells' re-analysis. A cell "hits" the
// memo when an earlier advised cell measured the same lifecycle.
func (s Sweep) adviceReport(b *strings.Builder, rows []SweepRow) {
	b.WriteString("Fault-sweep DFL re-analysis (advisor memo keyed by graph hash):\n")
	fmt.Fprintf(b, "%-10s %6s %18s %6s %8s %11s %9s\n",
		"workflow", "seed", "dfl-hash", "memo", "threads", "placements", "locality")
	seen := make(map[uint64]bool)
	hits, runs := 0, 0
	for _, r := range rows {
		if !s.advised(r.Key()) {
			continue
		}
		runs++
		if r.Err != "" {
			fmt.Fprintf(b, "%-10s %6d %18s  unrecovered: %s\n", r.Workflow, r.Seed, "-", r.Err)
			continue
		}
		memoState := "miss"
		if seen[r.Fingerprint] {
			memoState = "hit"
			hits++
		}
		seen[r.Fingerprint] = true
		fmt.Fprintf(b, "%-10s %6d %18x %6s %8d %11d %8.0f%%\n",
			r.Workflow, r.Seed, r.Fingerprint, memoState, r.Threads, r.Placements, 100*r.Locality)
	}
	fmt.Fprintf(b, "memo: %d/%d runs reused a cached plan\n", hits, runs)
}
