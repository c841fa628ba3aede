// Package checkpoint chooses which intermediate files of a measured DFL
// graph to checkpoint to a durable tier. The paper's lifetime analysis
// (Table 1) identifies intermediates whose loss forces expensive producer
// re-runs; this planner makes that reasoning proactive: each candidate is
// scored by its criticality on the volume-weighted critical path, the
// probability a crash lands inside its residency window
// (faults.CrashProbability), and the recovery work its loss puts at risk,
// against the I/O cost of copying it to the durable tier. The chosen set
// feeds sim.CheckpointPolicy.
package checkpoint

import (
	"fmt"
	"sort"
	"strings"

	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/faults"
)

// Config tunes the planner.
type Config struct {
	// Tier names the durable tier checkpoints are written to (it becomes
	// the plan's sim.CheckpointPolicy tier).
	Tier string
	// WriteBW is the durable tier's write bandwidth in bytes/second; it
	// prices the checkpoint copy. Zero falls back to 200 MB/s (the NFS
	// preset).
	WriteBW float64
	// CrashesPerHour is the per-node crash rate used to price loss
	// probability over each file's residency window. Zero or negative
	// means the fault schedule pins concrete crash times rather than a
	// rate: the planner then plans for certain loss (probability 1).
	CrashesPerHour float64
	// MinBenefit is the required ratio of expected rerun saving to copy
	// cost before a file is chosen. Zero falls back to 1 (checkpoint when
	// the expected saving exceeds the copy cost).
	MinBenefit float64
}

func (c Config) withDefaults() Config {
	if c.WriteBW <= 0 {
		c.WriteBW = 200e6
	}
	if c.MinBenefit <= 0 {
		c.MinBenefit = 1
	}
	return c
}

// Entry is one scored candidate file.
type Entry struct {
	// File is the data vertex.
	File dfl.ID
	// Size is the file size in bytes.
	Size int64
	// Criticality is 1 on the volume-critical path, decaying toward 0
	// with slack.
	Criticality float64
	// LossProb is the chance a crash lands in the file's residency window
	// (1 when planning against pinned crash times).
	LossProb float64
	// RerunCost bounds the recovery seconds at risk: re-running every
	// producer plus the consumers a mid-pipeline loss restarts or stalls.
	RerunCost float64
	// CopyCost is the checkpoint copy's I/O seconds on the durable tier.
	CopyCost float64
	// Benefit is Criticality × LossProb × RerunCost, the expected rerun
	// seconds a durable copy saves.
	Benefit float64
	// Chosen reports whether the planner selected the file.
	Chosen bool
}

// Plan is the planner's output: every intermediate candidate in descending
// benefit order, with the chosen subset flagged.
type Plan struct {
	// Tier is the durable tier of Config.
	Tier string
	// Entries holds all scored candidates, best first.
	Entries []Entry
}

// Files returns the chosen paths in deterministic (sorted) order — the
// list a sim.CheckpointPolicy takes.
func (p *Plan) Files() []string {
	var files []string
	for _, e := range p.Entries {
		if e.Chosen {
			files = append(files, e.File.Name)
		}
	}
	sort.Strings(files)
	return files
}

// Summary renders the chosen set as a compact, deterministic one-liner.
func (p *Plan) Summary() string {
	files := p.Files()
	if len(files) == 0 {
		return "(none)"
	}
	return strings.Join(files, ",")
}

// Choose scores every intermediate data vertex (files with at least one
// producer and one consumer task: exactly the files whose loss the engine's
// triage would recover by producer re-run) and selects those whose expected
// rerun saving exceeds the checkpoint copy cost.
func Choose(g *dfl.Graph, cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	slack, err := cpa.Slack(g, cpa.ByVolume, cpa.ByTaskTime)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	crit, err := cpa.CriticalPath(g, cpa.ByVolume, cpa.ByTaskTime)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ix := g.Index()
	slots, nt := ix.SlotsByID()
	var entries []Entry
	for _, p := range slots[nt:] {
		v := ix.VertexAt(p)
		if v.ID.Kind != dfl.DataVertex {
			continue
		}
		prods := ix.Producers(p)
		cons := ix.Consumers(p)
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
		// producing flows' write time, summed in ID order and then in-edge
		// order, since float addition depends on order.
		for _, id := range prods {
			e.RerunCost += g.Vertex(id).Task.Lifetime
		}
		for _, id := range cons {
			e.RerunCost += g.Vertex(id).Task.Lifetime
		}
		inE, _ := ix.In(p)
		for _, edge := range inE {
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

// Report renders the scored candidates as a table.
func Report(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint plan (tier %s): %d candidate(s), %d chosen\n",
		p.Tier, len(p.Entries), len(p.Files()))
	fmt.Fprintf(&b, "%-20s %12s %6s %6s %10s %10s %10s %7s\n",
		"file", "size", "crit", "loss", "rerun(s)", "copy(s)", "benefit", "chosen")
	for _, e := range p.Entries {
		fmt.Fprintf(&b, "%-20s %12d %6.2f %6.2f %10.2f %10.4f %10.2f %7v\n",
			e.File.Name, e.Size, e.Criticality, e.LossProb,
			e.RerunCost, e.CopyCost, e.Benefit, e.Chosen)
	}
	return b.String()
}
