package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"datalife/internal/experiments"
)

// faultFreeStdoutSHA256 pins the small-scale whatif/fig6/fig7 stdout of the
// pre-fault-injection build. With no -faults spec the robustness machinery
// must be invisible: every engine event, every float, every byte identical.
// If an intentional simulator change moves this hash, re-pin it in the same
// commit and say why in the message.
const faultFreeStdoutSHA256 = "b9e13f1643318cd5a6cb71c6c378ed789484952157bfdd62e266b570fd8ae248"

func TestFaultFreeOutputByteIdenticalToSeed(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"whatif", "fig6", "fig7"}, experiments.Small, "", 1, faultsOptions{Seeds: 3}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != faultFreeStdoutSHA256 {
		t.Fatalf("fault-free stdout hash = %s, want %s\n(the no-faults path must stay byte-identical; see comment above)", got, faultFreeStdoutSHA256)
	}
}

// TestSweepStdoutGolden pins the sweep subcommands' stdout at -scale small
// -seeds 2 under their default schedules: the plain and checkpoint fault
// sweeps, each with and without the -advise re-analysis, and the network
// sweep. If an intentional simulator change moves a hash, re-pin it in the
// same commit and say why in the message.
func TestSweepStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  string
		fo   faultsOptions
		want string
	}{
		{"faults", "faults", faultsOptions{Seeds: 2},
			"4d9fbb4582c253bf2a5cfc471a8f79fd2f9ed941bc23ffb3ce0a053079fef8b8"},
		{"advise faults", "faults", faultsOptions{Seeds: 2, Advise: true},
			"00d738c1ce3d53617a69c045012e964bccff4d15b2ca669177ae11c70b433647"},
		{"checkpoint faults", "faults", faultsOptions{Seeds: 2, Checkpoint: "nfs"},
			"d03d0194ceab5b91b6bbf36ef8fa05927cd9d27ca284d853c918ca7d6d77fbaa"},
		{"checkpoint advise faults", "faults", faultsOptions{Seeds: 2, Checkpoint: "nfs", Advise: true},
			"0e3fb6dabced642951f62535727571526088506cfb4325f1f22eeb8c1efe3c31"},
		{"netsweep", "netsweep", faultsOptions{Seeds: 2},
			"c12669a79f97f7e61ac2a4af41d47d7a9f789500d96133064276ce254465280a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, []string{tc.cmd}, experiments.Small, "", 1, tc.fo); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("stdout hash = %s, want %s\n%s", got, tc.want, buf.Bytes())
			}
		})
	}
}

func TestFaultSweepStdoutDeterministic(t *testing.T) {
	sweep := func() string {
		var buf bytes.Buffer
		if err := run(&buf, []string{"faults"}, experiments.Small, "", 1,
			faultsOptions{Spec: "seed=5;crash=node0@40;ioerr=nfs:0.05", Seeds: 3, Advise: true}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := sweep(), sweep()
	if a != b {
		t.Fatalf("same spec, different sweep output:\n%s\n---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty sweep output")
	}
}
