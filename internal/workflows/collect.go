package workflows

import (
	"fmt"

	"datalife/internal/blockstats"
	"datalife/internal/dfl"
	"datalife/internal/faults"
	"datalife/internal/iotrace"
	"datalife/internal/sim"
	"datalife/internal/vfs"
)

// RunOptions configure RunAndCollect.
type RunOptions struct {
	// Nodes and Cores size the cluster (defaults 4 × 16).
	Nodes, Cores int
	// InputTier is where inputs are seeded (default the cluster default,
	// "nfs").
	InputTier string
	// Hist overrides the collector's histogram configuration.
	Hist blockstats.Config
	// Planner optionally routes reads (e.g. through a cache).
	Planner sim.ReadPlanner
}

// RunAndCollect executes a workflow spec on a generic monitored cluster and
// returns the built DFL-DAG plus the run result — the one-call path from
// workload to lifecycle graph used by examples and the figure harnesses.
func RunAndCollect(spec *Spec, opts RunOptions) (*dfl.Graph, *sim.Result, error) {
	col, res, err := RunCollector(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	return dfl.Build(col), res, nil
}

// RunCollector is RunAndCollect without the graph-building step: it returns
// the raw collector, for callers that persist the measurement database
// (iotrace.SaveJSON).
func RunCollector(spec *Spec, opts RunOptions) (*iotrace.Collector, *sim.Result, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	if opts.Cores <= 0 {
		opts.Cores = 16
	}
	if opts.Hist.BlocksPerFile == 0 {
		opts.Hist = blockstats.DefaultConfig()
	}
	fs := vfs.New()
	cl, err := sim.BuildCluster(fs, sim.ClusterSpec{
		Name:        "collect",
		Nodes:       opts.Nodes,
		Cores:       opts.Cores,
		DefaultTier: "nfs",
		Shared:      []*vfs.Tier{vfs.NewNFS("nfs"), vfs.NewBeeGFS("beegfs")},
		LocalKinds:  []sim.LocalTierSpec{{Kind: "ssd"}, {Kind: "shm"}},
	})
	if err != nil {
		return nil, nil, err
	}
	tier := opts.InputTier
	if tier == "" {
		tier = "nfs"
	}
	if err := spec.Seed(fs, tier); err != nil {
		return nil, nil, err
	}
	col, err := iotrace.NewCollector(opts.Hist)
	if err != nil {
		return nil, nil, fmt.Errorf("workflows: %s: %w", spec.Name, err)
	}
	eng := &sim.Engine{FS: fs, Cluster: cl, Col: col, Planner: opts.Planner}
	res, err := eng.Run(spec.Workload)
	if err != nil {
		return nil, nil, fmt.Errorf("workflows: running %s: %w", spec.Name, err)
	}
	return col, res, nil
}

// StressOptions configure RunBare.
type StressOptions struct {
	// Nodes and Cores size the cluster (defaults 4 × 16).
	Nodes, Cores int
	// InputTier is where inputs without a per-file Tier are seeded
	// (default "nfs").
	InputTier string
	// Faults, when non-nil, injects the schedule.
	Faults *faults.Schedule
	// Topology, when non-nil, attaches the network topology so flows route
	// over links.
	Topology *sim.Topology
}

// RunBare executes a spec with no collector, tracer, or planner attached —
// the pure simulator hot path. Stress benchmarks and the engine equivalence
// tests use it so measurements reflect the event core, not instrumentation.
func RunBare(spec *Spec, opts StressOptions) (*sim.Result, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	if opts.Cores <= 0 {
		opts.Cores = 16
	}
	fs := vfs.New()
	cl, err := sim.BuildCluster(fs, sim.ClusterSpec{
		Name:        "stress",
		Nodes:       opts.Nodes,
		Cores:       opts.Cores,
		DefaultTier: "nfs",
		Shared:      []*vfs.Tier{vfs.NewNFS("nfs"), vfs.NewBeeGFS("beegfs")},
		LocalKinds:  []sim.LocalTierSpec{{Kind: "ssd"}, {Kind: "shm"}},
	})
	if err != nil {
		return nil, err
	}
	tier := opts.InputTier
	if tier == "" {
		tier = "nfs"
	}
	if err := spec.Seed(fs, tier); err != nil {
		return nil, err
	}
	eng := &sim.Engine{FS: fs, Cluster: cl, Faults: opts.Faults, Topology: opts.Topology}
	res, err := eng.Run(spec.Workload)
	if err != nil {
		return nil, fmt.Errorf("workflows: running %s: %w", spec.Name, err)
	}
	return res, nil
}
