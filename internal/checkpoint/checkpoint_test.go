package checkpoint

import (
	"strings"
	"testing"

	"datalife/internal/dfl"
)

// pipelineGraph builds produce →(64MB) mid →(64MB) consume, with an input
// file that is only read and an output that is only written.
func pipelineGraph(t *testing.T) *dfl.Graph {
	t.Helper()
	const mb = 1 << 20
	g := dfl.New()
	g.AddTask("produce").Task.Lifetime = 10
	g.AddTask("consume").Task.Lifetime = 100
	mid := g.AddData("mid")
	mid.Data.Size = 64 * mb
	mid.Data.Lifetime = 120
	g.AddData("input").Data.Size = 64 * mb
	g.AddData("out").Data.Size = 16 * mb
	mustEdge(t, g, dfl.DataID("input"), dfl.TaskID("produce"), dfl.Consumer, 64*mb)
	mustEdge(t, g, dfl.TaskID("produce"), dfl.DataID("mid"), dfl.Producer, 64*mb)
	mustEdge(t, g, dfl.DataID("mid"), dfl.TaskID("consume"), dfl.Consumer, 64*mb)
	mustEdge(t, g, dfl.TaskID("consume"), dfl.DataID("out"), dfl.Producer, 16*mb)
	return g
}

func mustEdge(t *testing.T, g *dfl.Graph, src, dst dfl.ID, kind dfl.EdgeKind, vol uint64) {
	t.Helper()
	if _, err := g.AddEdge(src, dst, kind, dfl.FlowProps{Volume: vol, Latency: 0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestChoosePicksIntermediateOnly(t *testing.T) {
	g := pipelineGraph(t)
	p, err := Choose(g, Config{Tier: "nfs"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Files(); len(got) != 1 || got[0] != "mid" {
		t.Fatalf("chosen = %v, want [mid]", got)
	}
	// Only mid is a candidate: input has no producer, out no consumer.
	if len(p.Entries) != 1 {
		t.Fatalf("candidates = %d, want 1 (%+v)", len(p.Entries), p.Entries)
	}
	e := p.Entries[0]
	if !e.Chosen || e.Benefit <= e.CopyCost {
		t.Fatalf("mid must be worth checkpointing: %+v", e)
	}
	// Rerun cost covers producer + consumer lifetimes + write latency.
	if e.RerunCost < 110 {
		t.Fatalf("rerun cost = %.2f, want >= 110", e.RerunCost)
	}
	if p.Summary() != "mid" {
		t.Fatalf("summary = %q", p.Summary())
	}
	if !strings.Contains(Report(p), "mid") {
		t.Fatal("report must list the candidate")
	}
}

func TestChooseCrashRateScalesLossProbability(t *testing.T) {
	g := pipelineGraph(t)
	certain, err := Choose(g, Config{Tier: "nfs"})
	if err != nil {
		t.Fatal(err)
	}
	rare, err := Choose(g, Config{Tier: "nfs", CrashesPerHour: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ce, re := certain.Entries[0], rare.Entries[0]
	if ce.LossProb != 1 {
		t.Fatalf("pinned-crash planning must assume loss: %v", ce.LossProb)
	}
	if re.LossProb <= 0 || re.LossProb >= ce.LossProb {
		t.Fatalf("rate-based loss probability = %v, want in (0,1)", re.LossProb)
	}
	if re.Benefit >= ce.Benefit {
		t.Fatal("a rare crash rate must shrink the benefit")
	}
	// At ~1 crash per 1000 hours over a 2-minute window, the expected
	// saving cannot justify the copy.
	if re.Chosen {
		t.Fatalf("mid chosen despite negligible loss probability: %+v", re)
	}
}

func TestChooseCheapProducerNotWorthCopying(t *testing.T) {
	g := pipelineGraph(t)
	// Make the pipeline so cheap that re-running it beats copying 64 MB.
	g.Vertex(dfl.TaskID("produce")).Task.Lifetime = 0.01
	g.Vertex(dfl.TaskID("consume")).Task.Lifetime = 0.01
	for _, e := range g.Edges() {
		e.Props.Latency = 0
	}
	g.Invalidate()
	p, err := Choose(g, Config{Tier: "nfs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Files()) != 0 {
		t.Fatalf("chose %v for a pipeline cheaper to re-run than to copy", p.Files())
	}
}

func TestMemoCachesByFingerprint(t *testing.T) {
	g := pipelineGraph(t)
	m := NewMemo()
	cfg := Config{Tier: "nfs"}
	p1, hit, err := m.Plan(g, cfg)
	if err != nil || hit {
		t.Fatalf("first plan: hit=%v err=%v, want a miss", hit, err)
	}
	p2, hit, err := m.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || p1 != p2 {
		t.Fatal("repeat plan must hit the cache and return the same pointer")
	}
	// A byte-identical rebuild of the graph hits too (content hash key).
	if p3, hit, err := m.Plan(pipelineGraph(t), cfg); err != nil || !hit || p3 != p1 {
		t.Fatalf("identical graph missed the cache (hit %v, err %v)", hit, err)
	}
	// A different config misses.
	if _, hit, err := m.Plan(g, Config{Tier: "nfs", CrashesPerHour: 2}); err != nil || hit {
		t.Fatalf("different config: hit=%v err=%v, want a miss", hit, err)
	}
}
