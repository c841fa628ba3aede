package dfl

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"datalife/internal/blockstats"
	"datalife/internal/iotrace"
	"datalife/internal/vfs"
)

// chain builds t0 -> d0 -> t1 -> d1 ... with volume v on every edge.
func chain(t *testing.T, n int, v uint64) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < n; i++ {
		task := TaskID(name("t", i))
		data := DataID(name("d", i))
		if _, err := g.AddEdge(task, data, Producer, FlowProps{Volume: v}); err != nil {
			t.Fatal(err)
		}
		if i+1 < n {
			next := TaskID(name("t", i+1))
			if _, err := g.AddEdge(data, next, Consumer, FlowProps{Volume: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func name(p string, i int) string { return p + string(rune('0'+i)) }

func TestEdgeDirectionValidation(t *testing.T) {
	g := New()
	cases := []struct {
		src, dst ID
		kind     EdgeKind
		ok       bool
	}{
		{DataID("d"), TaskID("t"), Consumer, true},
		{TaskID("t"), DataID("d"), Producer, true},
		{TaskID("t"), DataID("d"), Consumer, false},
		{DataID("d"), TaskID("t"), Producer, false},
		{TaskID("a"), TaskID("b"), Producer, false},
		{DataID("a"), DataID("b"), Consumer, false},
	}
	for i, c := range cases {
		_, err := g.AddEdge(c.src, c.dst, c.kind, FlowProps{})
		if (err == nil) != c.ok {
			t.Errorf("case %d: err=%v ok=%v", i, err, c.ok)
		}
	}
	if _, err := g.AddEdge(DataID("d"), TaskID("t"), EdgeKind(9), FlowProps{}); err == nil {
		t.Error("unknown edge kind accepted")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := chain(t, 3, 100)
	if g.NumVertices() != 6 || g.NumEdges() != 5 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if len(g.Tasks()) != 3 || len(g.DataFiles()) != 3 {
		t.Fatalf("tasks=%d data=%d", len(g.Tasks()), len(g.DataFiles()))
	}
	if g.OutDegree(TaskID("t0")) != 1 || g.InDegree(TaskID("t0")) != 0 {
		t.Fatal("degree wrong")
	}
	if e := g.FindEdge(TaskID("t0"), DataID("d0")); e == nil || e.Kind != Producer {
		t.Fatal("FindEdge failed")
	}
	if e := g.FindEdge(TaskID("t0"), DataID("d9")); e != nil {
		t.Fatal("phantom edge")
	}
	if g.TotalVolume() != 500 {
		t.Fatalf("TotalVolume = %d", g.TotalVolume())
	}
	e := g.FindEdge(DataID("d0"), TaskID("t1"))
	if e.Other(DataID("d0")) != TaskID("t1") || e.Other(TaskID("t1")) != DataID("d0") {
		t.Fatal("Other wrong")
	}
}

func TestTopoSortChain(t *testing.T) {
	g := chain(t, 4, 1)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[ID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Src] >= pos[e.Dst] {
			t.Fatalf("edge %v→%v violates topo order", e.Src, e.Dst)
		}
	}
	if !g.IsDAG() {
		t.Fatal("chain should be a DAG")
	}
}

func TestTopoSortCycleDetected(t *testing.T) {
	g := New()
	// t -> d -> t forms a cycle (possible after template merging).
	g.AddEdge(TaskID("t"), DataID("d"), Producer, FlowProps{})
	g.AddEdge(DataID("d"), TaskID("t"), Consumer, FlowProps{})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
	if g.IsDAG() {
		t.Fatal("IsDAG on cycle")
	}
}

func TestUseConcurrencyAndProducersConsumers(t *testing.T) {
	g := New()
	d := DataID("shared")
	g.AddEdge(TaskID("prod"), d, Producer, FlowProps{})
	for i := 0; i < 3; i++ {
		g.AddEdge(d, TaskID(name("c", i)), Consumer, FlowProps{})
	}
	if got := g.UseConcurrency(d); got != 3 {
		t.Fatalf("UseConcurrency = %d", got)
	}
	if got := g.UseConcurrency(TaskID("prod")); got != 0 {
		t.Fatalf("UseConcurrency on task = %d", got)
	}
	if p := g.Producers(d); len(p) != 1 || p[0] != TaskID("prod") {
		t.Fatalf("Producers = %v", p)
	}
	if c := g.Consumers(d); len(c) != 3 {
		t.Fatalf("Consumers = %v", c)
	}
	// A task has no producers or consumers of its own, and an absent ID
	// none at all.
	for _, id := range []ID{TaskID("c0"), TaskID("prod"), DataID("absent"), TaskID("absent")} {
		if p, c := g.Producers(id), g.Consumers(id); p != nil || c != nil {
			t.Fatalf("Producers(%v) = %#v, Consumers = %#v; want nil", id, p, c)
		}
	}
}

// TestEdgeLookupsDeriveNoSnapshot checks that FindEdge and SetEdgeProps read
// the endpoint table rather than a snapshot: on a graph with a pending delta
// they derive none, and neither do Template and AverageRuns, which call them
// between mutations, on the graphs they build. FindEdge and SetEdgeProps
// address the first-inserted edge of a duplicated pair.
func TestEdgeLookupsDeriveNoSnapshot(t *testing.T) {
	g := New()
	w, f := TaskID("w#0"), DataID("f")
	g.AddEdge(w, f, Producer, FlowProps{Volume: 1})
	g.AddUncheckedEdge(w, f, Producer, FlowProps{Volume: 2})
	g.AddEdge(TaskID("w#1"), f, Producer, FlowProps{Volume: 3})
	g.AddEdge(f, TaskID("r"), Consumer, FlowProps{Volume: 4})
	g.Index()
	g.AddEdge(TaskID("r"), DataID("out"), Producer, FlowProps{Volume: 5})
	before := g.IndexStats()

	if e := g.FindEdge(w, f); e == nil || e.Props.Volume != 1 {
		t.Fatalf("FindEdge of a duplicated pair = %+v, want the first inserted", e)
	}
	if g.FindEdge(f, w) != nil || g.FindEdge(w, DataID("absent")) != nil {
		t.Fatal("FindEdge found an edge that does not exist")
	}
	if !g.SetEdgeProps(w, f, FlowProps{Volume: 7}) {
		t.Fatal("SetEdgeProps missed the edge")
	}
	if e := g.FindEdge(w, f); e.Props.Volume != 7 {
		t.Fatalf("SetEdgeProps edited %+v, want the first inserted edge", e)
	}
	if st := g.IndexStats(); st != before {
		t.Fatalf("edge lookups derived snapshots: %+v, before %+v", st, before)
	}
	if out := g.Out(w); len(out) != 2 || out[0].Props.Volume != 7 || out[1].Props.Volume != 2 {
		t.Fatalf("Out(%v) = %v, want the edited edge, then its duplicate", w, out)
	}

	tpl := Template(g, nil)
	if st := tpl.IndexStats(); st.Derivations != 0 {
		t.Fatalf("Template derived %+v while building", st)
	}
	if e := tpl.FindEdge(TaskID("w"), f); e == nil || e.Props.Volume != 12 {
		t.Fatalf("template edge = %+v, want the three producer flows merged", e)
	}
	avg, err := AverageRuns([]*Graph{g, g})
	if err != nil {
		t.Fatal(err)
	}
	if st := avg.IndexStats(); st.Derivations != 0 {
		t.Fatalf("AverageRuns derived %+v while building", st)
	}
}

func TestTaskPropsRatios(t *testing.T) {
	p := TaskProps{Lifetime: 10, ReadOps: 100, WriteOps: 50,
		InVolume: 1000, OutVolume: 500, ReadLatency: 2, WriteLatency: 1}
	if p.ReadRate() != 10 || p.WriteRate() != 5 {
		t.Error("op rates wrong")
	}
	if p.DataReadRate() != 100 || p.DataWriteRate() != 50 {
		t.Error("data rates wrong")
	}
	if p.ReadBlockingFraction() != 0.2 || p.WriteBlockingFraction() != 0.1 {
		t.Error("blocking fractions wrong")
	}
	var zero TaskProps
	if zero.ReadRate() != 0 || zero.ReadBlockingFraction() != 0 {
		t.Error("zero lifetime should give zero rates")
	}
}

func TestFlowPropsDerived(t *testing.T) {
	p := FlowProps{Volume: 1000, Footprint: 250, Latency: 2}
	if p.ReuseFactor() != 4 {
		t.Errorf("ReuseFactor = %v", p.ReuseFactor())
	}
	if p.Rate() != 500 {
		t.Errorf("Rate = %v", p.Rate())
	}
	var zero FlowProps
	if zero.ReuseFactor() != 0 || zero.Rate() != 0 {
		t.Error("zero flow should give zero ratios")
	}
}

func TestBuildFromCollector(t *testing.T) {
	fs := vfs.New()
	if err := fs.AddTier(vfs.NewNFS("nfs")); err != nil {
		t.Fatal(err)
	}
	clk := &iotrace.ManualClock{}
	col := iotrace.MustCollector(blockstats.DefaultConfig())

	// producer writes 400B; consumer reads it twice (reuse).
	col.TaskStarted("producer", clk.Now())
	tr := iotrace.NewTracer("producer", fs, clk, iotrace.TierCost{}, col, "nfs")
	h, err := tr.Open("out.dat", iotrace.WRONLY|iotrace.CREATE)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(400)
	h.Close()
	col.TaskEnded("producer", clk.Now())

	col.TaskStarted("consumer", clk.Now())
	tc := iotrace.NewTracer("consumer", fs, clk, iotrace.TierCost{}, col, "nfs")
	for rep := 0; rep < 2; rep++ {
		rh, err := tc.Open("out.dat", iotrace.RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := rh.Read(100); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		rh.Close()
	}
	col.TaskEnded("consumer", clk.Now())

	g := Build(col)
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.IsDAG() {
		t.Fatal("DFL-DAG must be acyclic")
	}
	prod := g.FindEdge(TaskID("producer"), DataID("out.dat"))
	cons := g.FindEdge(DataID("out.dat"), TaskID("consumer"))
	if prod == nil || cons == nil {
		t.Fatal("missing edges")
	}
	if prod.Props.Volume != 400 {
		t.Errorf("producer volume = %d", prod.Props.Volume)
	}
	if cons.Props.Volume != 800 {
		t.Errorf("consumer volume = %d", cons.Props.Volume)
	}
	// Reading everything twice: reuse factor ~2.
	if rf := cons.Props.ReuseFactor(); rf < 1.8 || rf > 2.2 {
		t.Errorf("ReuseFactor = %v, want ~2", rf)
	}
	dv := g.Vertex(DataID("out.dat"))
	if dv.Data.Size != 400 {
		t.Errorf("data size = %d", dv.Data.Size)
	}
	if dv.Data.Lifetime <= 0 {
		t.Error("data lifetime not set")
	}
	tv := g.Vertex(TaskID("consumer"))
	if tv.Task.Lifetime <= 0 || tv.Task.InVolume != 800 {
		t.Errorf("consumer task props: %+v", tv.Task)
	}
}

func TestInstanceSuffixGroup(t *testing.T) {
	if got := InstanceSuffixGroup(TaskVertex, "indiv#7"); got != "indiv" {
		t.Errorf("got %q", got)
	}
	if got := InstanceSuffixGroup(TaskVertex, "plain"); got != "plain" {
		t.Errorf("got %q", got)
	}
	if got := InstanceSuffixGroup(TaskVertex, "#x"); got != "#x" {
		t.Errorf("leading # should not group, got %q", got)
	}
	if got := InstanceSuffixGroup(DataVertex, "f#1"); got != "f#1" {
		t.Errorf("data grouped: %q", got)
	}
}

func TestTemplateAggregation(t *testing.T) {
	g := New()
	// Three instances of task "sim" each writing its own file, one
	// aggregator consuming all files.
	for i := 0; i < 3; i++ {
		tid := TaskID("sim#" + string(rune('0'+i)))
		v := g.AddTask(tid.Name)
		v.Task.Lifetime = float64(10 * (i + 1)) // 10, 20, 30
		v.Task.OutVolume = 100
		g.AddEdge(tid, DataID(name("f", i)), Producer, FlowProps{Volume: 100})
		g.AddEdge(DataID(name("f", i)), TaskID("agg"), Consumer, FlowProps{Volume: 100})
	}
	tpl := Template(g, nil)
	sim := tpl.Vertex(TaskID("sim"))
	if sim == nil {
		t.Fatal("template vertex missing")
	}
	if sim.Task.Instances != 3 {
		t.Fatalf("Instances = %d", sim.Task.Instances)
	}
	if sim.Task.Lifetime != 20 { // mean of 10,20,30
		t.Fatalf("Lifetime = %v, want mean 20", sim.Task.Lifetime)
	}
	if sim.Task.OutVolume != 300 { // summed
		t.Fatalf("OutVolume = %d, want 300", sim.Task.OutVolume)
	}
	// Data files were not grouped, so edges sim->f0..f2 remain distinct.
	if tpl.OutDegree(TaskID("sim")) != 3 {
		t.Fatalf("OutDegree(sim) = %d", tpl.OutDegree(TaskID("sim")))
	}
}

func TestTemplateMergesParallelEdges(t *testing.T) {
	g := New()
	g.AddEdge(TaskID("w#0"), DataID("f"), Producer, FlowProps{Volume: 10, MeanDistance: 0})
	g.AddEdge(TaskID("w#1"), DataID("f"), Producer, FlowProps{Volume: 30, MeanDistance: 100})
	tpl := Template(g, nil)
	if tpl.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 merged", tpl.NumEdges())
	}
	e := tpl.FindEdge(TaskID("w"), DataID("f"))
	if e.Props.Volume != 40 {
		t.Fatalf("merged volume = %d", e.Props.Volume)
	}
	if e.Props.MeanDistance != 50 {
		t.Fatalf("merged distance = %v, want 50 (mean)", e.Props.MeanDistance)
	}
	if e.Props.Samples != 2 {
		t.Fatalf("samples = %d", e.Props.Samples)
	}
}

func TestTemplateCanFormCycle(t *testing.T) {
	// A control loop unrolled as train#0 -> model0 -> train#1 collapses to a
	// cyclic template train -> model -> train (the paper notes DFL-Ts can
	// have cycles).
	g := New()
	g.AddEdge(TaskID("train#0"), DataID("model"), Producer, FlowProps{})
	g.AddEdge(DataID("model"), TaskID("train#1"), Consumer, FlowProps{})
	tpl := Template(g, nil)
	if tpl.IsDAG() {
		t.Fatal("template should contain a cycle")
	}
}

func TestAverageRuns(t *testing.T) {
	mk := func(vol uint64, lt float64) *Graph {
		g := New()
		v := g.AddTask("t")
		v.Task.Lifetime = lt
		g.AddEdge(TaskID("t"), DataID("d"), Producer, FlowProps{Volume: vol, Latency: lt / 2})
		return g
	}
	avg, err := AverageRuns([]*Graph{mk(100, 10), mk(200, 20), mk(300, 30)})
	if err != nil {
		t.Fatal(err)
	}
	e := avg.FindEdge(TaskID("t"), DataID("d"))
	if e.Props.Volume != 200 {
		t.Fatalf("avg volume = %d, want 200", e.Props.Volume)
	}
	if got := avg.Vertex(TaskID("t")).Task.Lifetime; got != 20 {
		t.Fatalf("avg lifetime = %v, want 20", got)
	}
}

func TestAverageRunsErrors(t *testing.T) {
	if _, err := AverageRuns(nil); err == nil {
		t.Fatal("empty runs accepted")
	}
	a := New()
	a.AddEdge(TaskID("t"), DataID("d"), Producer, FlowProps{})
	b := New()
	b.AddEdge(TaskID("t"), DataID("d2"), Producer, FlowProps{})
	b.AddEdge(TaskID("t"), DataID("d3"), Producer, FlowProps{})
	if _, err := AverageRuns([]*Graph{a, b}); err == nil {
		t.Fatal("structural mismatch accepted")
	}
	c := New()
	c.AddEdge(TaskID("t"), DataID("x"), Producer, FlowProps{})
	if _, err := AverageRuns([]*Graph{a, c}); err == nil {
		t.Fatal("edge mismatch accepted")
	}
}

func TestQuickBuildAlwaysDAG(t *testing.T) {
	// Property: for causally well-formed executions — a file is written only
	// by "earlier" tasks than those that read it, the paper's implicit
	// precondition for DFL-DAG acyclicity — the built graph is an acyclic
	// DAG with correctly-directed edges.
	f := func(ops []uint8) bool {
		col := iotrace.MustCollector(blockstats.DefaultConfig())
		for i, op := range ops {
			ti := i % 5
			fj := int(op) % 7
			task := "t" + string(rune('0'+ti))
			file := "f" + string(rune('0'+fj))
			// Rank tasks at 5*ti and files at 2*fj+1; a task strictly below
			// a file's rank writes it, otherwise it reads it. Every edge then
			// increases rank, which guarantees acyclicity of the execution.
			kind := blockstats.Read
			if 2*fj+1 > 5*ti {
				kind = blockstats.Write
			}
			col.RecordAccess(task, file, 1000, kind, int64(op), 64, float64(i), 0.01)
		}
		g := Build(col)
		if !g.IsDAG() {
			return false
		}
		for _, e := range g.Edges() {
			switch e.Kind {
			case Consumer:
				if e.Src.Kind != DataVertex || e.Dst.Kind != TaskVertex {
					return false
				}
			case Producer:
				if e.Src.Kind != TaskVertex || e.Dst.Kind != DataVertex {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	if TaskVertex.String() != "task" || DataVertex.String() != "data" {
		t.Error("VertexKind strings")
	}
	if Consumer.String() != "consumer" || Producer.String() != "producer" {
		t.Error("EdgeKind strings")
	}
	if TaskID("x").String() != "task:x" {
		t.Error("ID string")
	}
}

func TestQuickTemplateConservation(t *testing.T) {
	// Properties of template aggregation: (a) the template never has more
	// vertices or edges than the instance graph; (b) total volume is
	// conserved; (c) instance counts sum to the original vertex count.
	f := func(edges []uint16) bool {
		g := New()
		for i, e := range edges {
			task := TaskID("w#" + string(rune('a'+int(e)%5)) + "#" + string(rune('0'+i%3)))
			data := DataID("f" + string(rune('0'+int(e)%4)))
			g.AddEdge(task, data, Producer, FlowProps{Volume: uint64(e)})
		}
		tpl := Template(g, nil)
		if tpl.NumVertices() > g.NumVertices() || tpl.NumEdges() > g.NumEdges() {
			return false
		}
		if tpl.TotalVolume() != g.TotalVolume() {
			return false
		}
		var instances int
		for _, v := range tpl.Vertices() {
			if v.ID.Kind == TaskVertex {
				instances += v.Task.Instances
			} else {
				instances += v.Data.Instances
			}
		}
		return instances == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTopoSortIsPermutation(t *testing.T) {
	// Property: a successful topological sort contains every vertex exactly
	// once, with all edges forward.
	f := func(n uint8) bool {
		size := int(n%20) + 2
		g := New()
		for i := 0; i < size; i++ {
			g.AddEdge(TaskID("t"+string(rune('0'+i%10))+string(rune('a'+i/10))),
				DataID("d"+string(rune('0'+i%10))+string(rune('a'+i/10))),
				Producer, FlowProps{})
		}
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		seen := make(map[ID]int)
		for i, id := range order {
			seen[id] = i
		}
		if len(seen) != g.NumVertices() {
			return false
		}
		for _, e := range g.Edges() {
			if seen[e.Src] >= seen[e.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSavedMatchesBuild(t *testing.T) {
	fs := vfs.New()
	if err := fs.AddTier(vfs.NewNFS("nfs")); err != nil {
		t.Fatal(err)
	}
	clk := &iotrace.ManualClock{}
	col := iotrace.MustCollector(blockstats.DefaultConfig())
	col.TaskStarted("p", 0)
	tr := iotrace.NewTracer("p", fs, clk, iotrace.TierCost{}, col, "nfs")
	h, _ := tr.Open("f", iotrace.WRONLY|iotrace.CREATE)
	h.Write(5000)
	h.Close()
	col.TaskEnded("p", clk.Now())

	direct := Build(col)

	var buf bytes.Buffer
	if err := col.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := iotrace.LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded := BuildSaved(st)
	if loaded.NumVertices() != direct.NumVertices() || loaded.NumEdges() != direct.NumEdges() {
		t.Fatalf("structure differs: %dV/%dE vs %dV/%dE",
			loaded.NumVertices(), loaded.NumEdges(), direct.NumVertices(), direct.NumEdges())
	}
	de := direct.FindEdge(TaskID("p"), DataID("f"))
	le := loaded.FindEdge(TaskID("p"), DataID("f"))
	if le == nil || le.Props.Volume != de.Props.Volume || le.Props.Footprint != de.Props.Footprint {
		t.Fatalf("edge props differ: %+v vs %+v", le, de)
	}
	if loaded.Vertex(TaskID("p")).Task.Lifetime != direct.Vertex(TaskID("p")).Task.Lifetime {
		t.Fatal("lifetime differs")
	}
}

func TestEdgeDistributions(t *testing.T) {
	mk := func(vol uint64) *Graph {
		g := New()
		g.AddEdge(TaskID("t"), DataID("d"), Producer, FlowProps{Volume: vol})
		return g
	}
	dists := EdgeDistributions([]*Graph{mk(100), mk(200), mk(300)}, nil)
	k := EdgeKey{TaskID("t"), DataID("d")}
	s, ok := dists[k]
	if !ok {
		t.Fatal("edge missing from distributions")
	}
	if s.N != 3 || s.Mean != 200 || s.Min != 100 || s.Max != 300 {
		t.Fatalf("summary = %+v", s)
	}
	// Structurally differing runs: extra edge gets fewer samples.
	g4 := mk(400)
	g4.AddEdge(DataID("d"), TaskID("extra"), Consumer, FlowProps{Volume: 7})
	dists = EdgeDistributions([]*Graph{mk(100), g4}, func(e *Edge) float64 {
		return float64(e.Props.Volume)
	})
	if dists[EdgeKey{DataID("d"), TaskID("extra")}].N != 1 {
		t.Fatal("extra edge sample count wrong")
	}
}
