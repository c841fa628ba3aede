package experiments

import (
	"reflect"
	"testing"
)

// TestFaultSweepSmoke is the CI fault-sweep gate: a fixed spec and seed must
// recover both demo workflows through their designated paths with exactly
// the expected attempt counts, and running the sweep twice must produce
// identical rows.
func TestFaultSweepSmoke(t *testing.T) {
	sw := Sweep{Kind: KindFaults, Spec: DefaultFaultSpec, Scale: Small, Seeds: 1}
	rows, err := sw.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	byName := map[string]SweepRow{}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s did not recover: %s", r.Workflow, r.Err)
		}
		if r.NodeCrashes != 1 {
			t.Fatalf("%s crashes = %d, want 1", r.Workflow, r.NodeCrashes)
		}
		if r.Makespan <= r.Baseline {
			t.Fatalf("%s makespan %v not above baseline %v despite a crash",
				r.Workflow, r.Makespan, r.Baseline)
		}
		byName[r.Workflow] = r
	}
	// restage: single task, restarted once => 2 attempts, recovery by
	// re-staging only.
	if r := byName["restage"]; r.Attempts != 2 || r.Restagings != 1 || r.ProducerReruns != 0 {
		t.Fatalf("restage row = %+v, want attempts=2 restage=1 rerun=0", byName["restage"])
	}
	// rerun: producer resurrected + consumer restarted => 4 attempts,
	// recovery by producer re-run only.
	if r := byName["rerun"]; r.Attempts != 4 || r.ProducerReruns != 1 || r.Restagings != 0 {
		t.Fatalf("rerun row = %+v, want attempts=4 rerun=1 restage=0", byName["rerun"])
	}

	again, err := sw.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Fatalf("same seed, different sweep:\n%+v\n---\n%+v", rows, again)
	}
}

// TestNetSweepSmoke pins the network sweep's recovery semantics under the
// default partition + degrade + loss schedule: stall cells recover with no
// failures by stalling, fail-fast cells recover through typed partition
// failures without stalling, and no cell re-stages anything — a partition
// loses no data.
func TestNetSweepSmoke(t *testing.T) {
	sw := Sweep{Kind: KindNet, Spec: DefaultNetFaultSpec, Scale: Small, Seeds: 2}
	rows, err := sw.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s/%d did not recover: %s", r.Mode, r.Seed, r.Err)
		}
		count[r.Mode]++
		switch r.Mode {
		case ModeStall:
			if r.Failures != 0 || r.PartitionStalls == 0 {
				t.Errorf("stall/%d: failures=%d stalls=%d, want 0 failures and >0 stalls",
					r.Seed, r.Failures, r.PartitionStalls)
			}
		case ModeFailFast:
			if r.PartitionStalls != 0 || r.Failures == 0 {
				t.Errorf("failfast/%d: stalls=%d failures=%d, want 0 stalls and >0 failures",
					r.Seed, r.PartitionStalls, r.Failures)
			}
		default:
			t.Errorf("unexpected mode %q", r.Mode)
		}
		if r.Restagings != 0 {
			t.Errorf("%s/%d re-staged %d file(s) after a partition", r.Mode, r.Seed, r.Restagings)
		}
	}
	if count[ModeStall] != 2 || count[ModeFailFast] != 2 {
		t.Fatalf("rows per mode = %v, want 2 stall and 2 failfast", count)
	}
}
