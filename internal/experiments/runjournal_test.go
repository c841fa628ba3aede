package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datalife/internal/journal"
)

// checkpointSweep is the fixed sweep the journal tests run: the default
// schedule over two seeds, checkpointing to nfs, with advice.
var checkpointSweep = Sweep{Kind: KindFaults, Spec: DefaultFaultSpec, Scale: Small, Seeds: 2,
	Checkpoint: "nfs", Advise: true}

// runJournaledSweep runs a full sweep recording into a journal at path and
// returns its rows.
func runJournaledSweep(t *testing.T, path string, sw Sweep) []SweepRow {
	t.Helper()
	j, err := OpenRunJournal(path, sw)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rows, err := sw.Run(j.Done(), j.Record)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRunJournalKillAndResumeBitIdentical is the kill-and-resume gate: a
// journal cut at EVERY byte offset (simulating SIGKILL at an arbitrary
// point, including mid-record) must reopen to a valid prefix, and the
// resumed sweep must reproduce the uninterrupted rows bit for bit.
func TestRunJournalKillAndResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	want := runJournaledSweep(t, full, checkpointSweep)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Sweep the cut point across the whole journal. Byte-level cuts cover
	// torn headers, torn row frames, and clean record boundaries alike.
	// Stride keeps the test fast while still hitting tears inside every
	// record; the exact end-of-record boundaries are covered by cut=len.
	for cut := 0; cut <= len(data); cut += 37 {
		trunc := filepath.Join(dir, "trunc.journal")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := runJournaledSweep(t, trunc, checkpointSweep)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at byte %d of %d: resumed rows differ\ngot:  %+v\nwant: %+v",
				cut, len(data), got, want)
		}
	}

	// The final cut (the complete journal) resumes every cell without
	// recomputing anything.
	j, err := OpenRunJournal(full, checkpointSweep)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Resumed() != len(want) {
		t.Fatalf("complete journal resumed %d cells, want %d", j.Resumed(), len(want))
	}
}

// TestRunJournalRejectsMismatchedHeader: resuming under different sweep
// parameters must fail loudly, not silently mix incomparable rows.
func TestRunJournalRejectsMismatchedHeader(t *testing.T) {
	sw := Sweep{Kind: KindFaults, Spec: DefaultFaultSpec, Scale: Small, Seeds: 1}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	runJournaledSweep(t, path, sw)

	with := func(edit func(*Sweep)) Sweep {
		s := sw
		edit(&s)
		return s
	}
	for _, bad := range []Sweep{
		with(func(s *Sweep) { s.Kind = KindNet }),
		with(func(s *Sweep) { s.Spec = "seed=9" }),
		with(func(s *Sweep) { s.Scale = Paper }),
		with(func(s *Sweep) { s.Seeds = 2 }),
		with(func(s *Sweep) { s.Checkpoint = "nfs" }),
		with(func(s *Sweep) { s.Advise = true }),
	} {
		if _, err := OpenRunJournal(path, bad); err == nil {
			t.Errorf("sweep %+v accepted a journal written under %+v", bad, sw)
		}
	}

	// A journal written before the sweep header carried its kind, seed
	// count, and advice setting is refused too.
	old := filepath.Join(t.TempDir(), "faultsweep.journal")
	f, err := os.Create(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.NewWriter(f).Append([]byte(`{"spec":"seed=1;crash=node0@40;ioerr=nfs:0.02","scale":1,"seeds":[1]}`)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenRunJournal(old, sw); err == nil {
		t.Error("a journal with the old header format was accepted")
	}
}

// TestFaultSweepCheckpointBeatsRecovery pins the tentpole's payoff: on the
// demos whose intermediates live on node-local tiers, checkpoint-enabled
// cells must show strictly fewer producer re-runs and strictly lower
// recovery time than the recovery-only cells of the same (workflow, seed).
func TestFaultSweepCheckpointBeatsRecovery(t *testing.T) {
	rows, err := checkpointSweep.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[RowKey]SweepRow{}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s/%d/%s did not recover: %s", r.Workflow, r.Seed, r.Mode, r.Err)
		}
		byKey[r.Key()] = r
	}
	// restage recovers off the shared tier either way; rerun and ddmd lose
	// node-local intermediates, which is where checkpoints pay.
	improved := 0
	for _, wf := range []string{"rerun", "ddmd"} {
		for _, seed := range []uint64{1, 2} {
			rec, ok := byKey[RowKey{wf, seed, ModeRecovery}]
			if !ok {
				t.Fatalf("missing recovery row for %s/%d", wf, seed)
			}
			ck, ok := byKey[RowKey{wf, seed, ModeCheckpoint}]
			if !ok {
				t.Fatalf("missing checkpoint row for %s/%d", wf, seed)
			}
			if ck.CheckpointPlan == "" || ck.CheckpointRestores == 0 {
				t.Fatalf("%s/%d checkpoint row has no plan or restores: %+v", wf, seed, ck)
			}
			if ck.ProducerReruns >= rec.ProducerReruns {
				t.Errorf("%s/%d: checkpoint reruns %d not below recovery-only %d",
					wf, seed, ck.ProducerReruns, rec.ProducerReruns)
			}
			if ck.RecoverySeconds >= rec.RecoverySeconds {
				t.Errorf("%s/%d: checkpoint recovery %.2fs not below recovery-only %.2fs",
					wf, seed, ck.RecoverySeconds, rec.RecoverySeconds)
			}
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("no checkpoint/recovery pairs compared")
	}
}
