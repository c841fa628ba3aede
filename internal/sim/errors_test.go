package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"datalife/internal/faults"
)

// TestTaskErrorKindTable exercises every FailureKind through Error(),
// errors.Is (via the per-kind sentinels), and errors.As.
func TestTaskErrorKindTable(t *testing.T) {
	kinds := []struct {
		kind     FailureKind
		name     string
		sentinel error
	}{
		{FailConfig, "config", ErrConfig},
		{FailIO, "io", ErrIO},
		{FailTransient, "transient", ErrTransient},
		{FailNodeCrash, "node-crash", ErrNodeCrash},
		{FailPartition, "partition", ErrPartition},
	}
	for _, c := range kinds {
		t.Run(c.name, func(t *testing.T) {
			cause := fmt.Errorf("boom")
			te := &TaskError{
				Task: "t1", OpIndex: 2, Op: OpRead, Path: "data/x",
				Node: "node0", Attempt: 3, Kind: c.kind, Cause: cause,
			}
			msg := te.Error()
			for _, want := range []string{"t1", "op 2", "data/x", "node0", "attempt 3", c.name, "boom"} {
				if !strings.Contains(msg, want) {
					t.Errorf("Error() = %q, missing %q", msg, want)
				}
			}
			wrapped := fmt.Errorf("sweep cell failed: %w", te)
			if !errors.Is(wrapped, c.sentinel) {
				t.Errorf("errors.Is(wrapped, %v) = false, want true", c.sentinel)
			}
			if !errors.Is(wrapped, cause) {
				t.Error("cause chain broken: errors.Is(wrapped, cause) = false")
			}
			for _, other := range kinds {
				if other.kind != c.kind && errors.Is(wrapped, other.sentinel) {
					t.Errorf("kind %v must not match sentinel %v", c.kind, other.sentinel)
				}
			}
			var got *TaskError
			if !errors.As(wrapped, &got) || got != te {
				t.Error("errors.As failed to recover the *TaskError")
			}
			if s := c.kind.Sentinel(); s != c.sentinel {
				t.Errorf("Sentinel() = %v, want %v", s, c.sentinel)
			}
		})
	}
	if s := FailureKind(99).Sentinel(); s != nil {
		t.Errorf("unknown kind sentinel = %v, want nil", s)
	}
	if got := FailureKind(99).String(); got != "failure(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

// TestEngineRunErrorMatchesSentinel ties the sentinels to a real run: a
// read of a missing file fails the run with an error matching ErrIO.
func TestEngineRunErrorMatchesSentinel(t *testing.T) {
	fs, c := testCluster(t, 1, 1)
	w := &Workload{Tasks: []*Task{{
		Name:   "reader",
		Script: []Op{Read("missing", 1<<20, 1<<20)},
	}}}
	_, err := (&Engine{FS: fs, Cluster: c}).Run(w)
	if err == nil {
		t.Fatal("run must fail")
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("errors.Is(err, ErrIO) = false for %v", err)
	}
	if errors.Is(err, ErrNodeCrash) || errors.Is(err, ErrTransient) {
		t.Fatalf("wrong sentinel matched for %v", err)
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Kind != FailIO || te.Task != "reader" {
		t.Fatalf("errors.As gave %+v", te)
	}
}

// TestSetupErrorsMatchErrConfig: a fault schedule, topology, or checkpoint
// policy that does not fit the cluster fails Run before the first event
// with an error matching ErrConfig and nothing else, its message unchanged.
// A run that starts and then fails to recover does not match ErrConfig.
func TestSetupErrorsMatchErrConfig(t *testing.T) {
	task := &Task{Name: "w", Script: []Op{Write("out", 1<<20, 1<<20)}}
	for _, tc := range []struct {
		eng  Engine
		want string
	}{
		{Engine{Faults: &faults.Schedule{Seed: 1, Crashes: []faults.NodeCrash{{Node: "node9", Time: 1}}}},
			`sim: fault schedule crashes unknown node "node9"`},
		{Engine{Faults: &faults.Schedule{Seed: 1, IOErrorRates: map[string]float64{"tape": 0.5}}},
			`sim: fault schedule injects I/O errors on unknown tier "tape"`},
		{Engine{Faults: &faults.Schedule{Seed: 1, Partitions: []faults.Partition{{A: "a", B: "b", Start: 0, End: 1}}}},
			"sim: fault schedule has partition/degrade/loss clauses but no Topology is attached"},
		{Engine{Checkpoint: &CheckpointPolicy{Tier: LocalTierName("shm", "node0"), Files: []string{"out"}}},
			"sim: checkpoint tier shm@node0 is node-local; checkpoints need a shared durable tier"},
	} {
		eng := tc.eng
		eng.FS, eng.Cluster = testCluster(t, 2, 1)
		_, err := eng.Run(&Workload{Tasks: []*Task{task}})
		if err == nil || err.Error() != tc.want {
			t.Errorf("err = %v, want %q", err, tc.want)
			continue
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("errors.Is(%v, ErrConfig) = false", err)
		}
		for _, other := range []error{ErrIO, ErrTransient, ErrNodeCrash, ErrPartition} {
			if errors.Is(err, other) {
				t.Errorf("setup error %v matches %v", err, other)
			}
		}
	}

	// Losing every node deadlocks the run, and exhausted transient retries
	// surface their own kind: neither is a setup error.
	read := &Task{Name: "r", Script: []Op{Compute(10), Read("f", 1<<20, 1<<20)}}
	for _, sched := range []*faults.Schedule{
		{Seed: 1, Crashes: []faults.NodeCrash{{Node: "node0", Time: 5}, {Node: "node1", Time: 6}}},
		{Seed: 1, IOErrorRates: map[string]float64{"nfs": 1}},
	} {
		fs, c := testCluster(t, 2, 1)
		if _, err := fs.CreateSized("f", "nfs", 1<<20); err != nil {
			t.Fatal(err)
		}
		_, err := (&Engine{FS: fs, Cluster: c, Faults: sched}).Run(&Workload{Tasks: []*Task{read}})
		if err == nil || errors.Is(err, ErrConfig) {
			t.Errorf("schedule %s: err = %v, want a non-config run failure", sched, err)
		}
	}
}
