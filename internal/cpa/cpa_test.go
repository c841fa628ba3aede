package cpa

import (
	"slices"
	"testing"

	"datalife/internal/dfl"
)

// diamond builds:
//
//	src -> a.dat -> mid1 -> b.dat -> sink
//	src -> c.dat -> mid2 -> d.dat -> sink
//
// with the top branch carrying volume 100 per edge and the bottom 10.
func diamond(t *testing.T) *dfl.Graph {
	t.Helper()
	g := dfl.New()
	add := func(src, dst dfl.ID, kind dfl.EdgeKind, vol uint64) {
		t.Helper()
		if _, err := g.AddEdge(src, dst, kind, dfl.FlowProps{Volume: vol, Latency: float64(vol) / 100}); err != nil {
			t.Fatal(err)
		}
	}
	add(dfl.TaskID("src"), dfl.DataID("a.dat"), dfl.Producer, 100)
	add(dfl.DataID("a.dat"), dfl.TaskID("mid1"), dfl.Consumer, 100)
	add(dfl.TaskID("mid1"), dfl.DataID("b.dat"), dfl.Producer, 100)
	add(dfl.DataID("b.dat"), dfl.TaskID("sink"), dfl.Consumer, 100)
	add(dfl.TaskID("src"), dfl.DataID("c.dat"), dfl.Producer, 10)
	add(dfl.DataID("c.dat"), dfl.TaskID("mid2"), dfl.Consumer, 10)
	add(dfl.TaskID("mid2"), dfl.DataID("d.dat"), dfl.Producer, 10)
	add(dfl.DataID("d.dat"), dfl.TaskID("sink"), dfl.Consumer, 10)
	return g
}

func TestCriticalPathByVolume(t *testing.T) {
	g := diamond(t)
	p, err := CriticalPath(g, ByVolume, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Weight != 400 {
		t.Fatalf("weight = %v, want 400", p.Weight)
	}
	want := []dfl.ID{dfl.TaskID("src"), dfl.DataID("a.dat"), dfl.TaskID("mid1"),
		dfl.DataID("b.dat"), dfl.TaskID("sink")}
	if len(p.Vertices) != len(want) {
		t.Fatalf("path = %v", p.Vertices)
	}
	for i := range want {
		if p.Vertices[i] != want[i] {
			t.Fatalf("path[%d] = %v, want %v", i, p.Vertices[i], want[i])
		}
	}
	if !p.Contains(dfl.TaskID("mid1")) || p.Contains(dfl.TaskID("mid2")) {
		t.Fatal("Contains wrong")
	}
}

func TestCriticalPathByTaskTime(t *testing.T) {
	g := diamond(t)
	g.Vertex(dfl.TaskID("mid2")).Task.Lifetime = 1000 // slow bottom task
	p, err := CriticalPath(g, nil, ByTaskTime)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(dfl.TaskID("mid2")) {
		t.Fatalf("time-weighted path should route through mid2: %v", p.Vertices)
	}
}

func TestCriticalPathByLatency(t *testing.T) {
	g := diamond(t)
	p, err := CriticalPath(g, ByLatency, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(dfl.TaskID("mid1")) {
		t.Fatalf("latency path should use top branch: %v", p.Vertices)
	}
}

func TestCriticalPathCycleError(t *testing.T) {
	g := dfl.New()
	g.AddEdge(dfl.TaskID("t"), dfl.DataID("d"), dfl.Producer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("d"), dfl.TaskID("t"), dfl.Consumer, dfl.FlowProps{})
	if _, err := CriticalPath(g, ByVolume, nil); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestCriticalPathEmptyGraph(t *testing.T) {
	if _, err := CriticalPath(dfl.New(), ByVolume, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestNearCriticalPaths(t *testing.T) {
	g := dfl.New()
	// Two independent chains with different sink weights.
	g.AddEdge(dfl.TaskID("a"), dfl.DataID("x"), dfl.Producer, dfl.FlowProps{Volume: 100})
	g.AddEdge(dfl.TaskID("b"), dfl.DataID("y"), dfl.Producer, dfl.FlowProps{Volume: 50})
	paths, err := NearCriticalPaths(g, ByVolume, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	if paths[0].Weight != 100 || paths[1].Weight != 50 {
		t.Fatalf("weights = %v, %v", paths[0].Weight, paths[1].Weight)
	}
}

func TestByBranchJoinWeights(t *testing.T) {
	g := dfl.New()
	d := dfl.DataID("shared")
	g.AddEdge(dfl.TaskID("p"), d, dfl.Producer, dfl.FlowProps{})
	g.AddEdge(d, dfl.TaskID("c1"), dfl.Consumer, dfl.FlowProps{})
	g.AddEdge(d, dfl.TaskID("c2"), dfl.Consumer, dfl.FlowProps{})
	g.AddEdge(dfl.TaskID("c1"), dfl.DataID("o1"), dfl.Producer, dfl.FlowProps{})
	g.AddEdge(dfl.TaskID("c2"), dfl.DataID("o2"), dfl.Producer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("o1"), dfl.TaskID("join"), dfl.Consumer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("o2"), dfl.TaskID("join"), dfl.Consumer, dfl.FlowProps{})

	if w := ByBranchJoin(g, g.Vertex(d)); w != 1 {
		t.Errorf("branch weight = %v", w)
	}
	if w := ByBranchJoin(g, g.Vertex(dfl.TaskID("join"))); w != 1 {
		t.Errorf("join weight = %v", w)
	}
	if w := ByBranchJoin(g, g.Vertex(dfl.TaskID("c1"))); w != 0 {
		t.Errorf("regular task weight = %v", w)
	}
	if w := ByTaskFanIn(g, g.Vertex(dfl.TaskID("join"))); w != 1 {
		t.Errorf("fan-in weight = %v", w)
	}
	if w := ByTaskFanIn(g, g.Vertex(d)); w != 0 {
		t.Errorf("fan-in on data = %v", w)
	}

	p, err := CriticalPath(g, nil, ByBranchJoin)
	if err != nil {
		t.Fatal(err)
	}
	if p.Weight != 2 { // one branch + one join along any full path
		t.Fatalf("branch/join path weight = %v, want 2", p.Weight)
	}
	br, jn := BranchJoinCount(g, p)
	if br != 1 || jn != 1 {
		t.Fatalf("BranchJoinCount = %d,%d", br, jn)
	}
}

func TestDFLCaterpillar(t *testing.T) {
	g := diamond(t)
	// Add a data leaf feeding mid1 whose producer is two hops from the path:
	// extra data vertex "cfg" consumed by mid1, produced by task "gen".
	g.AddEdge(dfl.TaskID("gen"), dfl.DataID("cfg"), dfl.Producer, dfl.FlowProps{Volume: 1})
	g.AddEdge(dfl.DataID("cfg"), dfl.TaskID("mid1"), dfl.Consumer, dfl.FlowProps{Volume: 1})

	p, err := CriticalPath(g, ByVolume, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := DFLCaterpillar(g, p)
	if !c.Contains(dfl.DataID("cfg")) {
		t.Fatal("distance-1 data leg missing")
	}
	// DFL rule: cfg's producer "gen" (distance 2) must be included.
	if !c.Contains(dfl.TaskID("gen")) {
		t.Fatal("distance-2 producer not pulled in by DFL rule")
	}
	found := false
	for _, id := range c.Extended {
		if id == dfl.TaskID("gen") {
			found = true
		}
	}
	if !found {
		t.Fatal("gen not classified as Extended")
	}
	if !c.IsCaterpillarTree(g) {
		t.Fatal("caterpillar invariant violated")
	}
	if c.Size() != len(c.Spine.Vertices)+len(c.Legs)+len(c.Extended) {
		t.Fatalf("Size = %d, parts = %d+%d+%d", c.Size(),
			len(c.Spine.Vertices), len(c.Legs), len(c.Extended))
	}
	if _, tasks, data, _ := c.Scope(g); len(tasks)+len(data) != c.Size() {
		t.Fatalf("Scope lists %d+%d members, Size = %d", len(tasks), len(data), c.Size())
	}
}

// TestCaterpillarSortedOnOverlaySnapshot builds the caterpillar on a
// snapshot derived in O(delta), whose overlay slots follow insertion order
// rather than canonical order: Legs and Extended must still come out sorted
// by (kind, name), exactly as on the compacted snapshot of the same graph.
func TestCaterpillarSortedOnOverlaySnapshot(t *testing.T) {
	g := dfl.New()
	add := func(src, dst dfl.ID, kind dfl.EdgeKind) {
		t.Helper()
		if _, err := g.AddEdge(src, dst, kind, dfl.FlowProps{Volume: 1, Latency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	t0, d0 := dfl.TaskID("t0"), dfl.DataID("d0")
	tA, tB, tC := dfl.TaskID("tA"), dfl.TaskID("tB"), dfl.TaskID("tC")
	tP, tQ := dfl.TaskID("tP"), dfl.TaskID("tQ")
	dY, dZ := dfl.DataID("dY"), dfl.DataID("dZ")
	add(t0, d0, dfl.Producer)
	g.Index()

	// One anchored delta hanging off d0, the topological tail. Its vertices
	// get overlay slots in insertion order: tC, tB, tA, dZ, dY, tQ, tP.
	add(d0, tC, dfl.Consumer)
	add(d0, tB, dfl.Consumer)
	add(d0, tA, dfl.Consumer)
	add(tA, dZ, dfl.Producer)
	add(tA, dY, dfl.Producer)
	add(dZ, tQ, dfl.Consumer)
	add(dZ, tP, dfl.Consumer)
	add(tQ, dY, dfl.Producer)
	add(tP, dY, dfl.Producer)
	fast := g.IndexStats().Fast
	g.Index()
	if g.IndexStats().Fast != fast+1 {
		t.Fatalf("the delta must take the fast path: %+v", g.IndexStats())
	}

	spine := Path{Vertices: []dfl.ID{t0, d0, tA}}
	wantLegs := []dfl.ID{tB, tC, dY, dZ}
	wantExt := []dfl.ID{tP, tQ}
	check := func(when string) {
		t.Helper()
		c := DFLCaterpillar(g, spine)
		if !slices.Equal(c.Legs, wantLegs) || !slices.Equal(c.Extended, wantExt) {
			t.Fatalf("%s: Legs %v Extended %v, want %v and %v",
				when, c.Legs, c.Extended, wantLegs, wantExt)
		}
	}
	check("overlay snapshot")
	g.Invalidate()
	check("compacted snapshot")
}

func TestCaterpillarSubgraph(t *testing.T) {
	g := diamond(t)
	p, _ := CriticalPath(g, ByVolume, nil)
	c := DFLCaterpillar(g, p)
	sub := c.Subgraph(g)
	if sub.NumVertices() != c.Size() {
		t.Fatalf("subgraph V = %d, want %d", sub.NumVertices(), c.Size())
	}
	// Every subgraph edge must connect members and keep its properties.
	for _, e := range sub.Edges() {
		if !c.Contains(e.Src) || !c.Contains(e.Dst) {
			t.Fatalf("edge %v→%v leaves caterpillar", e.Src, e.Dst)
		}
		orig := g.FindEdge(e.Src, e.Dst)
		if orig == nil || orig.Props.Volume != e.Props.Volume {
			t.Fatal("edge properties lost")
		}
	}
	// The whole diamond is within distance 1 of the spine here, so the
	// subgraph keeps all edges of g.
	if sub.NumEdges() != g.NumEdges() {
		t.Fatalf("subgraph E = %d, want %d", sub.NumEdges(), g.NumEdges())
	}
}

func TestPathEdgesAndVolume(t *testing.T) {
	g := diamond(t)
	p, _ := CriticalPath(g, ByVolume, nil)
	edges := PathEdges(g, p)
	if len(edges) != 4 {
		t.Fatalf("edges = %d", len(edges))
	}
	if PathVolume(g, p) != 400 {
		t.Fatalf("PathVolume = %d", PathVolume(g, p))
	}
}

func TestSlack(t *testing.T) {
	g := diamond(t)
	slack, err := Slack(g, ByVolume, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []dfl.ID{dfl.TaskID("src"), dfl.TaskID("mid1"), dfl.TaskID("sink")} {
		if slack[id] != 0 {
			t.Errorf("critical vertex %v has slack %v", id, slack[id])
		}
	}
	if slack[dfl.TaskID("mid2")] != 360 { // 400 - 40
		t.Errorf("mid2 slack = %v, want 360", slack[dfl.TaskID("mid2")])
	}
	if _, err := Slack(cyclic(), ByVolume, nil); err == nil {
		t.Fatal("Slack accepted cycle")
	}
}

func cyclic() *dfl.Graph {
	g := dfl.New()
	g.AddEdge(dfl.TaskID("t"), dfl.DataID("d"), dfl.Producer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("d"), dfl.TaskID("t"), dfl.Consumer, dfl.FlowProps{})
	return g
}

func TestByRateDeficit(t *testing.T) {
	g := dfl.New()
	// fast: 100B at rate 100B/s; slow: 100B at rate 10B/s.
	g.AddEdge(dfl.TaskID("a"), dfl.DataID("fast"), dfl.Producer, dfl.FlowProps{Volume: 100, Latency: 1})
	g.AddEdge(dfl.TaskID("b"), dfl.DataID("slow"), dfl.Producer, dfl.FlowProps{Volume: 100, Latency: 10})
	fast := g.FindEdge(dfl.TaskID("a"), dfl.DataID("fast"))
	slow := g.FindEdge(dfl.TaskID("b"), dfl.DataID("slow"))
	wf, ws := ByRateDeficit(g, fast), ByRateDeficit(g, slow)
	if ws <= wf {
		t.Fatalf("slow flow should outweigh fast: %v vs %v", ws, wf)
	}
	zero := &dfl.Edge{Props: dfl.FlowProps{}}
	if ByRateDeficit(g, zero) != 0 {
		t.Fatal("zero-rate edge should weigh 0")
	}
}

func TestLinearScalingSmoke(t *testing.T) {
	// The analysis must be linear-ish; as a smoke check, a 10x larger chain
	// must still complete instantly and produce the full-length path.
	for _, n := range []int{100, 1000} {
		g := dfl.New()
		for i := 0; i < n; i++ {
			task := dfl.TaskID(taskName(i))
			data := dfl.DataID(dataName(i))
			g.AddEdge(task, data, dfl.Producer, dfl.FlowProps{Volume: 1})
			if i+1 < n {
				g.AddEdge(data, dfl.TaskID(taskName(i+1)), dfl.Consumer, dfl.FlowProps{Volume: 1})
			}
		}
		p, err := CriticalPath(g, ByVolume, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Vertices) != 2*n {
			t.Fatalf("n=%d: path len = %d, want %d", n, len(p.Vertices), 2*n)
		}
	}
}

func taskName(i int) string { return "t" + itoa(i) }
func dataName(i int) string { return "d" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestGroupedBranchJoin(t *testing.T) {
	g := dfl.New()
	// columns consumed by two indiv instances (branch); each indiv joins two
	// inputs; merge joins both outputs.
	g.AddEdge(dfl.DataID("columns"), dfl.TaskID("indiv#0"), dfl.Consumer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("columns"), dfl.TaskID("indiv#1"), dfl.Consumer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("chr"), dfl.TaskID("indiv#0"), dfl.Consumer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("chr"), dfl.TaskID("indiv#1"), dfl.Consumer, dfl.FlowProps{})
	g.AddEdge(dfl.TaskID("indiv#0"), dfl.DataID("o0"), dfl.Producer, dfl.FlowProps{})
	g.AddEdge(dfl.TaskID("indiv#1"), dfl.DataID("o1"), dfl.Producer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("o0"), dfl.TaskID("merge"), dfl.Consumer, dfl.FlowProps{})
	g.AddEdge(dfl.DataID("o1"), dfl.TaskID("merge"), dfl.Consumer, dfl.FlowProps{})
	br, jn := GroupedBranchJoin(g, nil)
	if br != 2 { // columns and chr both feed two tasks
		t.Errorf("branches = %d, want 2", br)
	}
	if jn != 2 { // indiv (template of #0/#1) and merge
		t.Errorf("joins = %d, want 2", jn)
	}
}

func TestBottlenecks(t *testing.T) {
	g := diamond(t)
	all, err := Bottlenecks(g, ByVolume, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != g.NumVertices() {
		t.Fatalf("bottlenecks = %d", len(all))
	}
	// Lowest slack first; critical vertices lead with slack 0.
	if all[0].Slack != 0 {
		t.Fatalf("top slack = %v", all[0].Slack)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Slack < all[i-1].Slack {
			t.Fatal("not sorted by slack")
		}
	}
	// Kind filter + k limit.
	taskKind := dfl.TaskVertex
	tasks, err := Bottlenecks(g, ByVolume, nil, 2, &taskKind)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("k limit: %d", len(tasks))
	}
	for _, b := range tasks {
		if b.ID.Kind != dfl.TaskVertex {
			t.Fatalf("kind filter leaked %v", b.ID)
		}
	}
	if _, err := Bottlenecks(cyclic(), ByVolume, nil, 0, nil); err == nil {
		t.Fatal("cycle accepted")
	}
}
