package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datalife/internal/experiments"
	"datalife/internal/sim"
)

// TestFaultSweepResumeStdoutByteIdentical is the CLI half of the
// kill-and-resume gate: a sweep whose run journal was cut at an arbitrary
// byte (a SIGKILL mid-record) and re-run with -resume must print stdout
// byte-identical to an uninterrupted run, for the advised checkpoint fault
// sweep and for the network sweep.
func TestFaultSweepResumeStdoutByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		cmd, journal string
		fo           faultsOptions
	}{
		{"faults", "faultsweep.journal",
			faultsOptions{Spec: "seed=1;crash=node0@40;ioerr=nfs:0.02", Seeds: 3, Checkpoint: "nfs", Advise: true}},
		{"netsweep", "netsweep.journal", faultsOptions{Seeds: 2}},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			sweep := func(dir string) []byte {
				t.Helper()
				var buf bytes.Buffer
				fo := tc.fo
				fo.Resume = dir
				if err := run(&buf, []string{tc.cmd}, experiments.Small, "", 1, fo); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}

			// Uninterrupted reference (journaled, fresh directory).
			want := sweep(t.TempDir())

			// Interrupted run: complete once, then cut the journal at
			// arbitrary offsets and resume from the torn prefix.
			dir := t.TempDir()
			sweep(dir)
			journal := filepath.Join(dir, tc.journal)
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range []int{0, 1, len(data) / 3, len(data)/2 + 1, len(data) - 2, len(data)} {
				if err := os.WriteFile(journal, data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				if got := sweep(dir); !bytes.Equal(got, want) {
					t.Fatalf("cut at byte %d of %d: resumed stdout differs\ngot:\n%s\nwant:\n%s",
						cut, len(data), got, want)
				}
			}
		})
	}
}

// TestSweepConfigErrorFails: a schedule that does not fit the sweep's
// cluster is a setup mistake (sim.ErrConfig), so the sweep aborts and the
// subcommand fails naming it, while schedules that start and then fail to
// recover print unrecovered rows and succeed.
func TestSweepConfigErrorFails(t *testing.T) {
	for _, tc := range []struct{ cmd, spec, want string }{
		{"netsweep", "seed=1;crash=node0@40", `crashes unknown node "node0"`},
		{"faults", "seed=1;partition=coreA|coreB@25-45", "no Topology is attached"},
	} {
		var buf bytes.Buffer
		err := run(&buf, []string{tc.cmd}, experiments.Small, "", 1, faultsOptions{Spec: tc.spec, Seeds: 1})
		if !errors.Is(err, sim.ErrConfig) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s -faults %q: err = %v, want an ErrConfig naming %q", tc.cmd, tc.spec, err, tc.want)
		}
	}
	for _, spec := range []string{"seed=1;crash=node0@5;crash=node1@6", "seed=1;ioerr=nfs:0.9"} {
		var buf bytes.Buffer
		if err := run(&buf, []string{"faults"}, experiments.Small, "", 1, faultsOptions{Spec: spec, Seeds: 1}); err != nil {
			t.Fatalf("faults -faults %q: %v", spec, err)
		}
		if !strings.Contains(buf.String(), "unrecovered: ") {
			t.Errorf("faults -faults %q printed no unrecovered row:\n%s", spec, buf.String())
		}
	}
}
