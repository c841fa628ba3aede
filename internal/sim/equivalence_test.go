package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"datalife/internal/faults"
	"datalife/internal/sim"
	"datalife/internal/vfs"
	"datalife/internal/workflows"
)

// runRepricer executes one spec on a fresh stress cluster with the chosen
// fair-share repricing implementation (incremental or reference).
func runRepricer(t *testing.T, spec *workflows.Spec, naive bool, sched *faults.Schedule) (*sim.Result, error) {
	t.Helper()
	fs := vfs.New()
	cl, err := sim.BuildCluster(fs, sim.ClusterSpec{
		Name:        "equiv",
		Nodes:       4,
		Cores:       16,
		DefaultTier: "nfs",
		Shared:      []*vfs.Tier{vfs.NewNFS("nfs"), vfs.NewBeeGFS("beegfs")},
		LocalKinds:  []sim.LocalTierSpec{{Kind: "ssd"}, {Kind: "shm"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Seed(fs, "nfs"); err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{FS: fs, Cluster: cl, Faults: sched}
	eng.SetNaive(naive)
	return eng.Run(spec.Workload)
}

// checkEquivalent runs a spec under both repricers and requires identical
// outcomes — same error (if any) and a deeply equal Result, which it
// returns. Every float in the Result is the product of the settle/fair-rate
// arithmetic, so this is a bitwise check, not an epsilon one.
func checkEquivalent(t *testing.T, spec *workflows.Spec, sched *faults.Schedule) *sim.Result {
	t.Helper()
	inc, incErr := runRepricer(t, spec, false, sched)
	ref, refErr := runRepricer(t, spec, true, sched)
	if (incErr == nil) != (refErr == nil) {
		t.Fatalf("%s: error mismatch: incremental=%v reference=%v", spec.Name, incErr, refErr)
	}
	if incErr != nil {
		if incErr.Error() != refErr.Error() {
			t.Fatalf("%s: error text mismatch:\n  incremental: %v\n  reference:   %v", spec.Name, incErr, refErr)
		}
		return nil
	}
	if !reflect.DeepEqual(inc, ref) {
		t.Fatalf("%s: results diverge:\n  incremental: %+v\n  reference:   %+v", spec.Name, inc, ref)
	}
	return inc
}

// TestReshareEquivalence pits the incremental repricer against the naive
// reference over 60+ randomized and structured workloads, fault-free and
// faulty. Any drift in settle order, rate arithmetic, or event tie-breaking
// shows up as a float or ordering difference here.
func TestReshareEquivalence(t *testing.T) {
	specs := []*workflows.Spec{
		workflows.Chain(workflows.DefaultChainParams(300)),
		workflows.FanIn(workflows.DefaultFanInParams(200)),
		workflows.ShardedChains(workflows.DefaultShardedChainsParams(4, 40)),
	}
	for seed := int64(1); seed <= 50; seed++ {
		specs = append(specs, workflows.StressRandom(workflows.DefaultStressRandomParams(60, seed)))
	}
	for _, spec := range specs {
		checkEquivalent(t, spec, nil)
	}

	// Faulty runs cover the crash/retry/outage paths: bulk flow removal,
	// orphaned completions, zero-rate windows, and window-end repricing.
	base, err := faults.ParseSpec("crash=node1@5;ioerr=nfs:0.01;slow=nfs@2-15x0.5")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		spec := workflows.StressRandom(workflows.DefaultStressRandomParams(80, 1000+seed))
		checkEquivalent(t, spec, base.WithSeed(uint64(seed)))
	}
}

// TestParallelSerialEquivalenceFaulty injects transient I/O errors, a
// slowdown window and an outage, all keyed to node-local tiers, and requires
// the serial run to be reproducible: the incremental and naive repricers
// agree, and a second independent run renders to the same bytes. The name
// predates the removal of the parallel group runner this run was once
// compared against. Tier names contain '@', which ParseSpec cannot express,
// so the schedule is built directly.
func TestParallelSerialEquivalenceFaulty(t *testing.T) {
	sched := &faults.Schedule{
		Seed:         7,
		IOErrorRates: map[string]float64{"ssd@node1": 0.05},
		Slowdowns:    []faults.Slowdown{{Tier: "ssd@node2", Start: 2, End: 20, Factor: 0.5}},
		Outages:      []faults.Outage{{Tier: "ssd@node3", Start: 4, End: 6}},
	}
	mk := func() *workflows.Spec {
		return workflows.ShardedChains(workflows.DefaultShardedChainsParams(4, 120))
	}
	res := checkEquivalent(t, mk(), sched)
	if res == nil {
		t.Fatal("node-local fault schedule made the run fail")
	}
	again, err := runRepricer(t, mk(), false, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("repeated runs diverge:\n  first:  %+v\n  second: %+v", res, again)
	}
	// fmt sorts map keys, so rendered output is a deterministic byte string
	// — the same check a golden-stdout gate would make.
	if a, b := fmt.Sprintf("%+v", res), fmt.Sprintf("%+v", again); a != b {
		t.Fatalf("rendered results diverge:\n  first:  %s\n  second: %s", a, b)
	}
	if len(res.Failures) == 0 {
		t.Fatal("fixture injected no failures; faulty coverage is vacuous")
	}
	if res.Attempts == nil {
		t.Fatal("faulty run lost its Attempts map")
	}
}
