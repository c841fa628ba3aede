package advisor

import (
	"testing"

	"datalife/internal/dfl"
)

func memoGraph(t *testing.T, vol uint64) *dfl.Graph {
	t.Helper()
	g := dfl.New()
	g.AddTask("produce").Task.Lifetime = 5
	g.AddTask("consume").Task.Lifetime = 3
	g.AddData("mid").Data.Size = int64(vol)
	if _, err := g.AddEdge(dfl.TaskID("produce"), dfl.DataID("mid"), dfl.Producer,
		dfl.FlowProps{Volume: vol, Latency: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(dfl.DataID("mid"), dfl.TaskID("consume"), dfl.Consumer,
		dfl.FlowProps{Volume: vol, Latency: 2}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMemoHitOnIdenticalGraph(t *testing.T) {
	m := NewMemo()
	cfg := Config{Nodes: 2}

	p1, hit, err := m.Plan(memoGraph(t, 100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Plan reported a hit")
	}

	// A separately built but content-identical graph must hit and return the
	// same cached plan.
	p2, hit, err := m.Plan(memoGraph(t, 100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || p2 != p1 {
		t.Fatalf("content-identical graph: hit=%v, same plan=%v; want a hit on the cached plan", hit, p2 == p1)
	}
}

func TestMemoMissOnContentOrConfigChange(t *testing.T) {
	m := NewMemo()
	cfg := Config{Nodes: 2}
	if _, _, err := m.Plan(memoGraph(t, 100), cfg); err != nil {
		t.Fatal(err)
	}

	// Different edge volume → different fingerprint → miss.
	if _, hit, err := m.Plan(memoGraph(t, 101), cfg); err != nil || hit {
		t.Fatalf("after content change: hit=%v err=%v, want a miss", hit, err)
	}

	// Same graph, different config → miss.
	if _, hit, err := m.Plan(memoGraph(t, 100), Config{Nodes: 4}); err != nil || hit {
		t.Fatalf("after config change: hit=%v err=%v, want a miss", hit, err)
	}

	// The zero config normalizes to its defaults, so spelling a default out
	// is the same key.
	if _, _, err := m.Plan(memoGraph(t, 100), Config{}); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := m.Plan(memoGraph(t, 100), Config{}.withDefaults()); err != nil || !hit {
		t.Fatalf("normalized config: hit=%v err=%v, want a hit", hit, err)
	}
}

func TestMemoMatchesDirectAdvise(t *testing.T) {
	m := NewMemo()
	g := memoGraph(t, 4096)
	cfg := Config{Nodes: 2}
	direct, err := Advise(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memoized, _, err := m.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Report(0) != memoized.Report(0) {
		t.Fatalf("memoized plan differs from direct Advise:\n%s\n---\n%s",
			memoized.Report(0), direct.Report(0))
	}
}
