package checkpoint

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/dfl/dfltest"
	"datalife/internal/faults"
)

// referenceChoose is Choose as it read the graph by vertex ID: the canonical
// file list, the ID-keyed producer and consumer sets and in-edges. Choose
// scores every intermediate data vertex (files with at least one
// producer and one consumer task: exactly the files whose loss the engine's
// triage would recover by producer re-run) and selects those whose expected
// rerun saving exceeds the checkpoint copy cost.
func referenceChoose(g *dfl.Graph, cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	slack, err := cpa.Slack(g, cpa.ByVolume, cpa.ByTaskTime)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	crit, err := cpa.CriticalPath(g, cpa.ByVolume, cpa.ByTaskTime)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var entries []Entry
	for _, v := range g.DataFiles() {
		prods := g.Producers(v.ID)
		cons := g.Consumers(v.ID)
		if len(prods) == 0 || len(cons) == 0 {
			continue // an input or terminal output, not an intermediate
		}
		e := Entry{File: v.ID, Size: v.Data.Size}

		// Criticality: distance from the critical path, normalized by its
		// weight. Files on the path score 1.
		e.Criticality = 1
		if crit.Weight > 0 {
			e.Criticality = 1 - slack[v.ID]/crit.Weight
			if e.Criticality < 0 {
				e.Criticality = 0
			}
		}

		// Rerun cost: the producers that must re-execute, plus the
		// consumers that restart or stall behind the loss, plus the
		// producing flows' write time.
		for _, id := range prods {
			e.RerunCost += g.Vertex(id).Task.Lifetime
		}
		for _, id := range cons {
			e.RerunCost += g.Vertex(id).Task.Lifetime
		}
		for _, edge := range g.In(v.ID) {
			if edge.Kind == dfl.Producer {
				e.RerunCost += edge.Props.Latency
			}
		}

		// Loss probability over the file's residency window. With no
		// crash rate the schedule pins concrete crashes: plan for loss.
		e.LossProb = 1
		if cfg.CrashesPerHour > 0 {
			window := v.Data.Lifetime
			e.LossProb = faults.CrashProbability(cfg.CrashesPerHour, window)
		}

		e.CopyCost = float64(e.Size) / cfg.WriteBW
		e.Benefit = e.Criticality * e.LossProb * e.RerunCost
		e.Chosen = e.Size > 0 && e.Benefit > cfg.MinBenefit*e.CopyCost
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Benefit != entries[j].Benefit {
			return entries[i].Benefit > entries[j].Benefit
		}
		return entries[i].File.Name < entries[j].File.Name
	})
	return &Plan{Tier: cfg.Tier, Entries: entries}, nil
}

// TestChooseMatchesReference compares Choose with the ID-keyed reference on
// the corpus graphs under planning against pinned crashes and a crash rate.
func TestChooseMatchesReference(t *testing.T) {
	chosen := 0
	for _, c := range dfltest.Corpus(t) {
		for _, cfg := range []Config{{Tier: "nfs"}, {Tier: "nfs", CrashesPerHour: 2, WriteBW: 1e9}} {
			got, err := Choose(c.G, cfg)
			want, wantErr := referenceChoose(c.G, cfg)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: Choose error %v, reference error %v", c.Name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: plan differs from the reference", c.Name, cfg)
			}
			if got != nil {
				chosen += len(got.Files())
			}
		}
	}
	if chosen == 0 {
		t.Fatal("no corpus plan chose a file")
	}
}
