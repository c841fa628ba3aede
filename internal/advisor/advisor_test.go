package advisor

import (
	"strings"
	"testing"

	"datalife/internal/dfl"
	"datalife/internal/sim"
	"datalife/internal/vfs"
	"datalife/internal/workflows"
)

// twoThreadGraph builds two independent producer-consumer chains plus one
// shared input file consumed by both consumers.
func twoThreadGraph(t *testing.T) *dfl.Graph {
	t.Helper()
	g := dfl.New()
	add := func(src, dst dfl.ID, kind dfl.EdgeKind, vol uint64) {
		t.Helper()
		if _, err := g.AddEdge(src, dst, kind, dfl.FlowProps{Volume: vol, Footprint: vol}); err != nil {
			t.Fatal(err)
		}
	}
	for i, chain := range []string{"a", "b"} {
		p := dfl.TaskID("prod-" + chain)
		m := dfl.DataID("mid-" + chain)
		c := dfl.TaskID("cons-" + chain)
		add(p, m, dfl.Producer, uint64(1000*(i+1)))
		add(m, c, dfl.Consumer, uint64(1000*(i+1)))
		g.Vertex(p).Task.Lifetime = 10
		g.Vertex(c).Task.Lifetime = 10
	}
	// Shared read-only input with wide fan-out.
	shared := dfl.DataID("shared-input")
	for _, c := range []string{"prod-a", "cons-a", "prod-b", "cons-b"} {
		add(shared, dfl.TaskID(c), dfl.Consumer, 500)
	}
	return g
}

func TestAdviseThreadsAndPlacement(t *testing.T) {
	g := twoThreadGraph(t)
	plan, err := Advise(g, Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Threads) == 0 {
		t.Fatal("no threads")
	}
	// Each chain must be co-located: producer and consumer on the same node.
	node := make(map[dfl.ID]int)
	for _, th := range plan.Threads {
		for _, tk := range th.Tasks {
			node[tk] = th.Node
		}
	}
	for _, chain := range []string{"a", "b"} {
		p, pok := node[dfl.TaskID("prod-"+chain)]
		c, cok := node[dfl.TaskID("cons-"+chain)]
		if !pok || !cok {
			t.Fatalf("chain %s: a task is in no thread", chain)
		}
		if p != c {
			t.Errorf("chain %s split across nodes %d/%d", chain, p, c)
		}
	}
	// Placements: the intermediates should be node-local, the shared input
	// staged (4 consumers >= default threshold).
	byFile := make(map[string]FilePlacement)
	for _, fp := range plan.Placements {
		byFile[fp.File.Name] = fp
	}
	if got := byFile["shared-input"].Class; got != StagedCopy {
		t.Errorf("shared-input = %v, want staged-copy", got)
	}
	for _, chain := range []string{"a", "b"} {
		if got := byFile["mid-"+chain].Class; got != NodeLocal {
			t.Errorf("mid-%s = %v, want node-local", chain, got)
		}
	}
	// Report renders.
	rep := plan.Report(10)
	if !strings.Contains(rep, "thread") || !strings.Contains(rep, "staged-copy") {
		t.Fatalf("report malformed:\n%s", rep)
	}
	if s := plan.LocalityScore(g); s <= 0 || s > 1 {
		t.Fatalf("locality score = %v", s)
	}
}

func TestAdviseRejectsCyclicTemplate(t *testing.T) {
	g := dfl.New()
	g.AddEdge(dfl.TaskID("t"), dfl.DataID("d"), dfl.Producer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("d"), dfl.TaskID("t"), dfl.Consumer, dfl.FlowProps{})
	if _, err := Advise(g, Config{Nodes: 2}); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

// TestAdviseRejectsSameKindEdges: an edge that does not join a task and a
// data vertex, which only AddUncheckedEdge makes, is an error, as a cycle is.
func TestAdviseRejectsSameKindEdges(t *testing.T) {
	a, b := dfl.TaskID("a"), dfl.TaskID("b")
	x, y := dfl.DataID("x"), dfl.DataID("y")
	for _, tc := range []struct {
		name  string
		edges [][2]dfl.ID
	}{
		{"file to file alone", [][2]dfl.ID{{x, y}}},
		{"file to file between tasks", [][2]dfl.ID{{a, x}, {x, y}, {y, b}}},
		{"task to task", [][2]dfl.ID{{a, b}}},
	} {
		g := dfl.New()
		for _, e := range tc.edges {
			kind := dfl.Consumer
			if e[0].Kind == dfl.TaskVertex {
				kind = dfl.Producer
			}
			g.AddUncheckedEdge(e[0], e[1], kind, dfl.FlowProps{Volume: 1, Latency: 1})
		}
		if _, err := Advise(g, Config{Nodes: 2}); err == nil {
			t.Errorf("%s: graph accepted", tc.name)
		}
	}
}

func TestBalanceThreadsLPT(t *testing.T) {
	threads := []Thread{
		{ID: 0, Work: 10},
		{ID: 1, Work: 9},
		{ID: 2, Work: 2},
		{ID: 3, Work: 1},
	}
	BalanceThreads(threads, 2)
	load := map[int]float64{}
	for _, th := range threads {
		load[th.Node] += th.Work
	}
	// LPT on {10,9,2,1} over 2 nodes gives 11 vs 11.
	if load[0] != 11 || load[1] != 11 {
		t.Fatalf("loads = %v", load)
	}
	// Degenerate node counts clamp to 1.
	BalanceThreads(threads, 0)
	for _, th := range threads {
		if th.Node != 0 {
			t.Fatal("zero-node balance broken")
		}
	}
}

func TestTierClassString(t *testing.T) {
	if SharedFS.String() != "shared-fs" || NodeLocal.String() != "node-local" ||
		StagedCopy.String() != "staged-copy" {
		t.Fatal("tier class strings")
	}
}

// TestAdvisorClosesTheLoop is the headline validation: measure 1000 Genomes,
// let the advisor derive a plan automatically, apply it, and verify the
// advised execution approaches the hand-tuned Fig. 6 configuration.
func TestAdvisorClosesTheLoop(t *testing.T) {
	p := workflows.DefaultGenomes()
	// Enough concurrent readers of the big shared input to congest the
	// parallel filesystem, as in the paper's case study.
	p.Chromosomes, p.IndivPerChr, p.Populations = 4, 12, 2
	p.ChrBytes, p.ColumnsBytes, p.AnnotationBytes = 120<<20, 800<<20, 60<<20
	p.IndivCompute, p.MergeCompute, p.SiftCompute, p.ConsumerCompute = 1, 0.5, 0.5, 0.2

	// 1. Measure the unoptimized run and build the DFL.
	g, _, err := workflows.RunAndCollect(workflows.Genomes(p), workflows.RunOptions{Nodes: 4, Cores: 24})
	if err != nil {
		t.Fatal(err)
	}

	// 2. Advise.
	plan, err := Advise(g, Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}

	// 3. Baseline: everything on the shared parallel FS, unpinned.
	baseline := runGenomes(t, p, nil, nil)

	// 4. Advised: apply the plan and rerun.
	advised := runGenomes(t, p, plan, []string{"node0", "node1", "node2", "node3"})

	if advised >= baseline {
		t.Fatalf("advised run (%.1fs) not faster than baseline (%.1fs)", advised, baseline)
	}
	if baseline/advised < 2 {
		t.Fatalf("advised speedup only %.2fx; plan:\n%s", baseline/advised, plan.Report(10))
	}
}

func runGenomes(t *testing.T, p workflows.GenomesParams, plan *Plan, nodes []string) float64 {
	t.Helper()
	spec := workflows.Genomes(p)
	fs := vfs.New()
	cl, err := sim.BuildCluster(fs, sim.ClusterSpec{
		Name: "c", Nodes: 4, Cores: 24, DefaultTier: "beegfs",
		Shared:     []*vfs.Tier{vfs.NewBeeGFS("beegfs")},
		LocalKinds: []sim.LocalTierSpec{{Kind: "shm"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Seed(fs, "beegfs"); err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		if err := Apply(spec, plan, nodes, "local:shm"); err != nil {
			t.Fatal(err)
		}
	}
	eng := &sim.Engine{FS: fs, Cluster: cl}
	res, err := eng.Run(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

func TestApplyValidation(t *testing.T) {
	spec := workflows.Genomes(workflows.GenomesParams{
		Chromosomes: 1, IndivPerChr: 2, Populations: 1,
		ChrBytes: 1 << 20, ColumnsBytes: 1 << 20, AnnotationBytes: 1 << 20,
	})
	if err := Apply(spec, &Plan{}, nil, "local:shm"); err == nil {
		t.Fatal("empty node list accepted")
	}
}

func TestAdviseCrashRateAnnotatesVolatilePlacements(t *testing.T) {
	g := twoThreadGraph(t)
	// Give the intermediates a residency window so the exposure is nonzero.
	for _, chain := range []string{"a", "b"} {
		g.Vertex(dfl.DataID("mid-" + chain)).Data.Lifetime = 1800
	}
	plan, err := Advise(g, Config{Nodes: 2, CrashesPerHour: 1})
	if err != nil {
		t.Fatal(err)
	}
	byFile := make(map[string]FilePlacement)
	for _, fp := range plan.Placements {
		byFile[fp.File.Name] = fp
	}
	for _, chain := range []string{"a", "b"} {
		fp := byFile["mid-"+chain]
		if fp.Class != NodeLocal {
			t.Fatalf("mid-%s = %v, want node-local", chain, fp.Class)
		}
		if fp.RerunRisk <= 0 || fp.RerunRisk >= 1 {
			t.Fatalf("mid-%s rerun risk = %v, want in (0,1)", chain, fp.RerunRisk)
		}
		// Expected cost = risk x producer lifetime (10s).
		if want := fp.RerunRisk * 10; fp.RerunCost < want-1e-9 || fp.RerunCost > want+1e-9 {
			t.Fatalf("mid-%s rerun cost = %v, want %v", chain, fp.RerunCost, want)
		}
	}
	if !strings.Contains(plan.Report(10), "crash exposure") {
		t.Fatalf("report missing volatile annotation:\n%s", plan.Report(10))
	}

	// Without a crash rate, the annotation must vanish entirely.
	plain, err := Advise(twoThreadGraph(t), Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range plain.Placements {
		if fp.RerunRisk != 0 || fp.RerunCost != 0 {
			t.Fatalf("rerun fields set without a crash rate: %+v", fp)
		}
	}
	if strings.Contains(plain.Report(10), "crash exposure") {
		t.Fatal("annotation printed without a crash rate")
	}
}
