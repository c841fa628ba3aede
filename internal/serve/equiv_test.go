package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"datalife/internal/blockstats"
	"datalife/internal/dfl"
	"datalife/internal/iotrace"
)

// randomEvent draws one trace event over a small pool of tasks and files, so
// flows are revisited, tasks start without ending (or end without starting),
// and reads and writes mix on the same file.
func randomEvent(rng *rand.Rand) iotrace.TraceEvent {
	ev := iotrace.TraceEvent{
		Kind: iotrace.EventKind(rng.Intn(8)),
		Task: fmt.Sprintf("t%d", rng.Intn(5)),
		File: fmt.Sprintf("f%d", rng.Intn(6)),
		T:    float64(rng.Intn(4000)) / 16,
		Dt:   float64(rng.Intn(64)) / 1024,
	}
	switch ev.Kind {
	case iotrace.EvTaskStart, iotrace.EvTaskEnd:
		ev.File = ""
	case iotrace.EvRead, iotrace.EvWrite, iotrace.EvReadChunks, iotrace.EvWriteChunks:
		ev.FileSize = int64(rng.Intn(1 << 20))
		ev.Off = int64(rng.Intn(1 << 20))
		ev.Len = int64(rng.Intn(1 << 16))
		ev.Chunk = int64(1 + rng.Intn(8192))
		ev.Rep = 1 + rng.Intn(3)
	}
	return ev
}

// TestLiveGraphMatchesBuildAndSaved streams seeded random event programs
// through a session and syncs at random points. At every sync the live graph,
// a batch dfl.Build over the session's collector, and dfl.BuildSaved over the
// collector's SaveJSON→LoadJSON round trip must have one fingerprint: all
// three fold measurements through the same derivation.
func TestLiveGraphMatchesBuildAndSaved(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := newSession("equiv", filepath.Join(t.TempDir(), "equiv.journal"),
			blockstats.DefaultConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		syncs := 0
		for step := 0; step < 50; step++ {
			batch := eventsMsg{FirstSeq: s.appliedSeq, Events: make([]iotrace.TraceEvent, 1+rng.Intn(12))}
			for i := range batch.Events {
				batch.Events[i] = randomEvent(rng)
			}
			s.applyBatch(batch)
			s.appliedSeq += uint64(len(batch.Events))
			if rng.Intn(3) != 0 && step != 49 {
				continue
			}
			s.syncGraphLocked()
			syncs++
			live := s.g.Fingerprint()
			built := dfl.Build(s.col).Fingerprint()
			var buf bytes.Buffer
			if err := s.col.SaveJSON(&buf); err != nil {
				t.Fatal(err)
			}
			st, err := iotrace.LoadJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			saved := dfl.BuildSaved(st).Fingerprint()
			if live != built || built != saved {
				t.Fatalf("seed %d sync %d (seq %d): live %#x, Build %#x, BuildSaved %#x",
					seed, syncs, s.appliedSeq, live, built, saved)
			}
		}
	}
}
