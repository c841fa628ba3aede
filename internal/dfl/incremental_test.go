package dfl

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// assertSnapshotEquivalent deep-compares the graph's (possibly incremental)
// snapshot against a naive from-scratch buildIndexReference rebuild on every
// public accessor. Slot numbering may differ between the two (overlay snapshots keep
// delta vertices after the base), so adjacency and neighbor sets are compared
// at the ID level and canonical views element-wise.
func assertSnapshotEquivalent(t *testing.T, g *Graph) {
	t.Helper()
	ix := g.Index()
	ref := buildIndexReference(g)

	if ix.Len() != ref.Len() {
		t.Fatalf("Len: incremental %d, rebuild %d", ix.Len(), ref.Len())
	}
	if ix.mEdges != ref.mEdges {
		t.Fatalf("edge count: incremental %d, rebuild %d", ix.mEdges, ref.mEdges)
	}

	// Pos/IDAt/VertexAt bijection over exactly the live IDs.
	for r := int32(0); r < int32(ref.Len()); r++ {
		id := ref.IDAt(r)
		p := ix.Pos(id)
		if p < 0 || int(p) >= ix.Len() {
			t.Fatalf("Pos(%v) = %d out of range", id, p)
		}
		if ix.IDAt(p) != id {
			t.Fatalf("IDAt(Pos(%v)) = %v", id, ix.IDAt(p))
		}
		if ix.VertexAt(p) != ref.VertexAt(r) {
			t.Fatalf("VertexAt disagrees for %v", id)
		}
	}
	if ix.Pos(TaskID("__absent__")) != -1 {
		t.Fatal("Pos of absent ID must be -1")
	}

	// Topological order: identical ID sequence and identical error text.
	refTopo, refErr := ref.Topo()
	_, ixErr := ix.Topo()
	gotIDs, gErr := g.TopoSort()
	if (refErr == nil) != (ixErr == nil) || (refErr == nil) != (gErr == nil) {
		t.Fatalf("Topo error mismatch: rebuild %v, incremental %v / %v", refErr, ixErr, gErr)
	}
	if refErr != nil {
		if refErr.Error() != ixErr.Error() {
			t.Fatalf("cycle error text differs:\n incremental %q\n rebuild     %q", ixErr, refErr)
		}
	} else {
		if len(gotIDs) != len(refTopo) {
			t.Fatalf("topo length: incremental %d, rebuild %d", len(gotIDs), len(refTopo))
		}
		ixTopo, _ := ix.Topo()
		for k, slot := range refTopo {
			if want := ref.IDAt(slot); gotIDs[k] != want || ix.IDAt(ixTopo[k]) != want {
				t.Fatalf("topo position %d: incremental %v/%v, rebuild %v",
					k, gotIDs[k], ix.IDAt(ixTopo[k]), want)
			}
		}
	}

	// Adjacency: the same edges per vertex in the same (insertion) order,
	// with slot companions that round-trip to the edge endpoints.
	for r := int32(0); r < int32(ref.Len()); r++ {
		id := ref.IDAt(r)
		p := ix.Pos(id)
		gotE, gotP := ix.Out(p)
		wantE, _ := ref.Out(r)
		if len(gotE) != len(gotP) || ix.OutDegree(p) != ref.OutDegree(r) {
			t.Fatalf("OutDegree(%v): incremental %d, rebuild %d", id, ix.OutDegree(p), ref.OutDegree(r))
		}
		if !slices.Equal(gotE, wantE) {
			t.Fatalf("Out(%v) differs from the rebuild's insertion-order list", id)
		}
		for k := range gotE {
			if ix.IDAt(gotP[k]) != gotE[k].Dst {
				t.Fatalf("Out(%v) slot %d does not match edge dst", id, k)
			}
		}
		gotE, gotP = ix.In(p)
		wantE, _ = ref.In(r)
		if len(gotE) != len(gotP) || ix.InDegree(p) != ref.InDegree(r) {
			t.Fatalf("InDegree(%v): incremental %d, rebuild %d", id, ix.InDegree(p), ref.InDegree(r))
		}
		if !slices.Equal(gotE, wantE) {
			t.Fatalf("In(%v) differs from the rebuild's insertion-order list", id)
		}
		for k := range gotE {
			if ix.IDAt(gotP[k]) != gotE[k].Src {
				t.Fatalf("In(%v) slot %d does not match edge src", id, k)
			}
		}
	}

	// Canonical views must agree element-wise (same pointers, same order).
	ixVs, ixNT := ix.canonVerts()
	refVs, refNT := ref.canonVerts()
	if len(ixVs) != len(refVs) || ixNT != refNT {
		t.Fatalf("canonical vertices: incremental %d/%d tasks, rebuild %d/%d",
			len(ixVs), ixNT, len(refVs), refNT)
	}
	for k := range refVs {
		if ixVs[k] != refVs[k] {
			t.Fatalf("canonical vertex %d differs: %v vs %v", k, ixVs[k].ID, refVs[k].ID)
		}
	}
	ixEs, refEs := ix.canonEdges(), ref.canonEdges()
	if len(ixEs) != len(refEs) {
		t.Fatalf("canonical edges: incremental %d, rebuild %d", len(ixEs), len(refEs))
	}
	for k := range refEs {
		if ixEs[k] != refEs[k] {
			t.Fatalf("canonical edge %d differs: %v→%v vs %v→%v",
				k, ixEs[k].Src, ixEs[k].Dst, refEs[k].Src, refEs[k].Dst)
		}
	}

	// Producer/consumer sets for every data vertex.
	for r := int32(0); r < int32(ref.Len()); r++ {
		id := ref.IDAt(r)
		if id.Kind != DataVertex {
			continue
		}
		if got, want := g.Producers(id), ref.Producers(r); !idsEqual(got, want) {
			t.Fatalf("Producers(%v): incremental %v, rebuild %v", id, got, want)
		}
		if got, want := g.Consumers(id), ref.Consumers(r); !idsEqual(got, want) {
			t.Fatalf("Consumers(%v): incremental %v, rebuild %v", id, got, want)
		}
	}

	// Aggregates and the content fingerprint.
	if ix.totalVolume != ref.totalVolume {
		t.Fatalf("TotalVolume: incremental %d, rebuild %d", ix.totalVolume, ref.totalVolume)
	}
	if ix.bestRate != ref.bestRate {
		t.Fatalf("BestRate: incremental %g, rebuild %g", ix.bestRate, ref.bestRate)
	}
	if ix.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("Fingerprint: incremental %#x, rebuild %#x", ix.Fingerprint(), ref.Fingerprint())
	}
}

// traceStep applies one random mutation to g. Ops are drawn so that a
// realistic mix of fast derivations and compactions occurs: frontier growth
// (anchored, stays incremental), random cross edges and property edits (both
// compact).
func traceStep(rng *rand.Rand, g *Graph, step int) {
	switch op := rng.Intn(12); {
	case op < 4:
		// Frontier growth: hang a new producer/consumer pair off the current
		// topological tail — the anchored shape the fast path serves.
		tail, err := g.TopoSort()
		if err != nil || len(tail) == 0 {
			g.AddTask(fmt.Sprintf("seed%d", step))
			return
		}
		a := tail[len(tail)-1]
		if a.Kind == TaskVertex {
			d := g.AddData(fmt.Sprintf("d%d", step))
			_, _ = g.AddEdge(a, d.ID, Producer, FlowProps{Volume: uint64(1 + rng.Intn(100)), Latency: 1})
		} else {
			tk := g.AddTask(fmt.Sprintf("t%d", step))
			_, _ = g.AddEdge(a, tk.ID, Consumer, FlowProps{Volume: uint64(1 + rng.Intn(100)), Latency: 1})
		}
	case op < 6:
		// Random cross edge between existing vertices (may be rejected by the
		// bipartite check; may create an edge into an old vertex → compaction).
		vs := g.Vertices()
		if len(vs) < 2 {
			return
		}
		a, b := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
		if a.ID.Kind == b.ID.Kind || g.FindEdge(a.ID, b.ID) != nil {
			return
		}
		kind := Producer
		if a.ID.Kind == DataVertex {
			kind = Consumer
		}
		_, _ = g.AddEdge(a.ID, b.ID, kind, FlowProps{Volume: uint64(1 + rng.Intn(50)), Latency: 2})
	case op < 8:
		// Edit a random edge's properties through the tracked delta path.
		es := g.Edges()
		if len(es) == 0 {
			return
		}
		e := es[rng.Intn(len(es))]
		p := e.Props
		p.Volume = uint64(1 + rng.Intn(1000))
		p.Latency = float64(1+rng.Intn(9)) / 2
		g.SetEdgeProps(e.Src, e.Dst, p)
	case op < 9:
		// Fresh disconnected vertex (compacts: unanchored).
		g.AddData(fmt.Sprintf("iso%d", step))
	case op < 11:
		// Edit a random vertex's properties through the tracked delta path
		// (copy-on-write).
		vs := g.Vertices()
		if len(vs) == 0 {
			return
		}
		v := vs[rng.Intn(len(vs))]
		if v.ID.Kind == TaskVertex {
			p := v.Task
			p.Lifetime = float64(1+rng.Intn(20)) / 4
			p.ReadOps += uint64(rng.Intn(5))
			p.InVolume += uint64(rng.Intn(512))
			g.SetTaskProps(v.ID.Name, p)
		} else {
			p := v.Data
			p.Size = int64(rng.Intn(4096))
			p.Lifetime += 0.5
			g.SetDataProps(v.ID.Name, p)
		}
	default:
		// Escape hatch: untracked in-place mutation plus Invalidate.
		es := g.Edges()
		if len(es) == 0 {
			return
		}
		e := g.FindEdge(es[rng.Intn(len(es))].Src, es[rng.Intn(len(es))].Dst)
		if e != nil {
			e.Props.Ops += 3
			g.Invalidate()
		}
	}
}

// TestIncrementalMatchesRebuildOnTraces drives randomized mutation traces,
// and a scripted one, and checks, after every step, that the incrementally
// derived snapshot is indistinguishable from a naive full rebuild on every
// public accessor, and that no delta carrying an edit took the fast path.
func TestIncrementalMatchesRebuildOnTraces(t *testing.T) {
	run := func(t *testing.T, g *Graph, steps int, step func(int)) {
		t.Helper()
		for i := 0; i < steps; i++ {
			step(i)
			edits := len(g.pend.editOld) + len(g.pend.editVertOld)
			fast := g.IndexStats().Fast
			g.Index()
			if edits > 0 && g.IndexStats().Fast > fast {
				t.Fatalf("step %d: a delta with %d edits took the fast path", i, edits)
			}
			assertSnapshotEquivalent(t, g)
		}
		st := g.IndexStats()
		if st.Fast == 0 {
			t.Fatalf("trace never exercised the fast path: %+v", st)
		}
		if st.Compactions == 0 {
			t.Fatalf("trace never exercised compaction: %+v", st)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := New()
			g.AddTask("root")
			run(t, g, 120, func(step int) { traceStep(rng, g, step) })
		})
	}
	// A compacted chain, then one anchored delta of duplicate edges in
	// scrambled order: the overlay's canonical edge order must keep
	// duplicates in insertion order, as a compaction does.
	t.Run("duplicate-fanout", func(t *testing.T) {
		g := New()
		run(t, g, 2, func(step int) {
			props := func(v int) FlowProps { return FlowProps{Volume: uint64(v), Latency: 1} }
			if step == 0 {
				for i := 0; i < 50; i++ {
					tk, d := TaskID(fmt.Sprintf("t%02d", i)), DataID(fmt.Sprintf("d%02d", i))
					if i > 0 {
						g.AddUncheckedEdge(DataID(fmt.Sprintf("d%02d", i-1)), tk, Consumer, props(i))
					}
					g.AddUncheckedEdge(tk, d, Producer, props(i))
				}
				return
			}
			fan := TaskID("fan")
			g.AddUncheckedEdge(DataID("d49"), fan, Consumer, props(1))
			for pass := 0; pass < 2; pass++ {
				for k := 0; k < 20; k++ {
					f := DataID(fmt.Sprintf("out%02d", k*7%20))
					g.AddUncheckedEdge(fan, f, Producer, props(100*pass+k))
				}
			}
		})
	})
}

// TestStreamingChainStaysFast grows a producer chain one edge at a time with
// a query after every append and asserts the derivations are overwhelmingly
// O(delta): compactions are bounded by the geometric extras threshold, so
// their count grows logarithmically, not linearly.
func TestStreamingChainStaysFast(t *testing.T) {
	g := New()
	prev := g.AddTask("t0").ID
	g.Index()
	for i := 0; i < 600; i++ {
		var next ID
		if prev.Kind == TaskVertex {
			next = DataID(fmt.Sprintf("d%d", i))
			g.AddData(next.Name)
			if _, err := g.AddEdge(prev, next, Producer, FlowProps{Volume: 8, Latency: 1}); err != nil {
				t.Fatal(err)
			}
		} else {
			next = TaskID(fmt.Sprintf("t%d", i))
			g.AddTask(next.Name)
			if _, err := g.AddEdge(prev, next, Consumer, FlowProps{Volume: 8, Latency: 1}); err != nil {
				t.Fatal(err)
			}
		}
		prev = next
		if _, err := g.TopoSort(); err != nil {
			t.Fatal(err)
		}
		g.Fingerprint()
		if i%97 == 0 {
			assertSnapshotEquivalent(t, g)
		}
	}
	assertSnapshotEquivalent(t, g)
	st := g.IndexStats()
	if st.Fast < st.Derivations*9/10 {
		t.Fatalf("streaming build fell off the fast path: %+v", st)
	}
	if st.Compactions > 16 {
		t.Fatalf("too many compactions for a geometric threshold: %+v", st)
	}
}

// TestEditOnlyDeltasCompact asserts that every pure property-edit delta
// compacts, never taking the append-only O(delta) path, and agrees with a
// rebuild each time.
func TestEditOnlyDeltasCompact(t *testing.T) {
	g := New()
	g.AddTask("t")
	for i := 0; i < 8; i++ {
		g.AddData(fmt.Sprintf("d%d", i))
		if _, err := g.AddEdge(TaskID("t"), DataID(fmt.Sprintf("d%d", i)), Producer,
			FlowProps{Volume: 10, Latency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	g.Index()
	base := g.IndexStats().Compactions
	for round := 0; round < 20; round++ {
		for i := 0; i < 8; i++ {
			id := DataID(fmt.Sprintf("d%d", i))
			e := g.FindEdge(TaskID("t"), id)
			p := e.Props
			p.Volume += uint64(round + 1) // raises the best rate
			g.SetEdgeProps(TaskID("t"), id, p)
		}
		assertSnapshotEquivalent(t, g)
	}
	st := g.IndexStats()
	if st.Compactions != base+20 {
		t.Fatalf("edit-only rounds did not each compact: %+v", st)
	}
	if st.Fast != 0 {
		t.Fatal("an edit-only round took the fast path")
	}

	// Lowering the best-rate edge must compact too and still agree.
	e := g.FindEdge(TaskID("t"), DataID("d0"))
	p := e.Props
	p.Volume = 1
	g.SetEdgeProps(TaskID("t"), DataID("d0"), p)
	assertSnapshotEquivalent(t, g)
	if g.IndexStats().Compactions != base+21 {
		t.Fatal("lowering the best-rate edge should have compacted")
	}
}

// TestVertexEditOnlyDeltasCompact asserts that SetTaskProps/SetDataProps
// deltas compact, never taking the append-only O(delta) path, that
// previously obtained snapshots keep reading the old vertex values, and that
// the content fingerprint tracks the edits exactly.
func TestVertexEditOnlyDeltasCompact(t *testing.T) {
	g := New()
	g.AddTask("t")
	for i := 0; i < 6; i++ {
		d := fmt.Sprintf("d%d", i)
		g.AddData(d)
		if _, err := g.AddEdge(TaskID("t"), DataID(d), Producer,
			FlowProps{Volume: 10, Latency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	pinned := g.Index()
	pinnedFP := pinned.Fingerprint()
	pinnedLifetime := pinned.VertexAt(pinned.Pos(TaskID("t"))).Task.Lifetime
	base := g.IndexStats().Compactions

	for round := 1; round <= 20; round++ {
		g.SetTaskProps("t", TaskProps{Lifetime: float64(round), ReadOps: uint64(round)})
		g.SetDataProps(fmt.Sprintf("d%d", round%6), DataProps{Size: int64(round * 100), Lifetime: 1})
		assertSnapshotEquivalent(t, g)
	}
	st := g.IndexStats()
	if st.Compactions != base+20 {
		t.Fatalf("vertex-edit-only rounds did not each compact: %+v", st)
	}
	if st.Fast != 0 {
		t.Fatal("a vertex-edit-only round took the fast path")
	}

	// The pinned snapshot must still read the pre-edit values.
	if got := pinned.VertexAt(pinned.Pos(TaskID("t"))).Task.Lifetime; got != pinnedLifetime {
		t.Fatalf("pinned snapshot drifted: lifetime %g, want %g", got, pinnedLifetime)
	}
	if pinned.Fingerprint() != pinnedFP {
		t.Fatal("pinned snapshot fingerprint drifted")
	}
	if g.Fingerprint() == pinnedFP {
		t.Fatal("fingerprint did not track vertex edits")
	}

	// Editing a vertex added in the same delta must surface its final value
	// without an edit record.
	g.AddTask("late")
	g.SetTaskProps("late", TaskProps{Lifetime: 9})
	assertSnapshotEquivalent(t, g)
	if got := g.Vertex(TaskID("late")).Task.Lifetime; got != 9 {
		t.Fatalf("same-delta edit lost: lifetime %g", got)
	}
	if !g.SetTaskProps("late", TaskProps{Lifetime: 10}) {
		t.Fatal("SetTaskProps returned false for existing task")
	}
	if g.SetTaskProps("absent", TaskProps{}) || g.SetDataProps("absent", DataProps{}) {
		t.Fatal("SetTaskProps/SetDataProps must return false for missing vertices")
	}
	assertSnapshotEquivalent(t, g)
}

// TestCycleIntroducedMidStream introduces a cycle among vertices added in a
// single delta and checks the incremental path reports the exact same error
// text a full rebuild does, both at the failing snapshot and afterwards.
func TestCycleIntroducedMidStream(t *testing.T) {
	g := New()
	g.AddTask("t0")
	g.AddData("d0")
	if _, err := g.AddEdge(TaskID("t0"), DataID("d0"), Producer, FlowProps{Volume: 4, Latency: 1}); err != nil {
		t.Fatal(err)
	}
	g.Index() // establish a snapshot; topo tail is d0

	// One delta: d0→t1 (anchor edge), then a 2-cycle t1→d1→t1 among the new
	// vertices — anchored, structurally incremental, but unorderable.
	g.AddTask("t1")
	g.AddData("d1")
	mustEdge := func(src, dst ID, k EdgeKind) {
		t.Helper()
		if _, err := g.AddEdge(src, dst, k, FlowProps{Volume: 1, Latency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(DataID("d0"), TaskID("t1"), Consumer)
	mustEdge(TaskID("t1"), DataID("d1"), Producer)
	mustEdge(DataID("d1"), TaskID("t1"), Consumer)

	_, err := g.TopoSort()
	if err == nil {
		t.Fatal("expected a cycle error")
	}
	assertSnapshotEquivalent(t, g)

	// Later structural growth on a poisoned order must compact and agree.
	g.AddData("d2")
	mustEdge(TaskID("t1"), DataID("d2"), Producer)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle cannot disappear")
	}
	assertSnapshotEquivalent(t, g)
}

// TestStaleSnapshotsUnderConcurrentMutation pins reader goroutines to old
// snapshots while the writer keeps mutating and deriving new ones. Every
// answer a pinned snapshot gives must stay bit-identical no matter how far
// the writer has advanced; run with -race this doubles as the memory-model
// check for the shared epoch arrays and seq-marked adjacency halves.
func TestStaleSnapshotsUnderConcurrentMutation(t *testing.T) {
	g := New()
	prev := g.AddTask("t0").ID
	var published atomic.Pointer[Index]
	published.Store(g.Index())

	const (
		readers = 4
		steps   = 400
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix := published.Load()
				n := ix.Len()
				topo, err := ix.Topo()
				if err != nil {
					errs <- fmt.Errorf("stale snapshot reports cycle: %v", err)
					return
				}
				if len(topo) != n {
					errs <- fmt.Errorf("stale snapshot topo length %d != %d", len(topo), n)
					return
				}
				fp := ix.Fingerprint()
				var edges int
				for i := int32(0); i < int32(n); i++ {
					es, ps := ix.Out(i)
					if len(es) != len(ps) {
						errs <- fmt.Errorf("ragged adjacency at slot %d", i)
						return
					}
					for k := range es {
						if ix.IDAt(ps[k]) != es[k].Dst {
							errs <- fmt.Errorf("slot %d edge %d dst mismatch", i, k)
							return
						}
					}
					edges += len(es)
				}
				// Re-reads from the same snapshot must not drift.
				if n2, fp2 := ix.Len(), ix.Fingerprint(); n2 != n || fp2 != fp {
					errs <- fmt.Errorf("snapshot drifted: n %d→%d fp %#x→%#x", n, n2, fp, fp2)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < steps; i++ {
		var next ID
		if prev.Kind == TaskVertex {
			next = DataID(fmt.Sprintf("d%d", i))
			g.AddData(next.Name)
			if _, err := g.AddEdge(prev, next, Producer, FlowProps{Volume: 8, Latency: 1}); err != nil {
				t.Fatal(err)
			}
		} else {
			next = TaskID(fmt.Sprintf("t%d", i))
			g.AddTask(next.Name)
			if _, err := g.AddEdge(prev, next, Consumer, FlowProps{Volume: 8, Latency: 1}); err != nil {
				t.Fatal(err)
			}
		}
		prev = next
		if rng.Intn(3) == 0 {
			es := g.Edges()
			e := es[rng.Intn(len(es))]
			p := e.Props
			p.Volume += 5
			g.SetEdgeProps(e.Src, e.Dst, p)
		}
		if rng.Intn(4) == 0 {
			vs := g.Vertices()
			v := vs[rng.Intn(len(vs))]
			if v.ID.Kind == TaskVertex {
				p := v.Task
				p.ReadOps += 7
				g.SetTaskProps(v.ID.Name, p)
			} else {
				p := v.Data
				p.Size += 64
				g.SetDataProps(v.ID.Name, p)
			}
		}
		published.Store(g.Index())
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	assertSnapshotEquivalent(t, g)
	if st := g.IndexStats(); st.Fast == 0 {
		t.Fatalf("concurrent trace never exercised the fast path: %+v", st)
	}
}

// TestConcurrentGraphReads has several goroutines read a graph with a pending
// delta through its ID-keyed methods at once, after compacting batches and
// after O(delta) appends at the topological tail: one reader derives the
// snapshot while the others wait for it, and every read must equal the
// insertion-order lists built from the edge list. Run it under the race
// detector.
func TestConcurrentGraphReads(t *testing.T) {
	g := New()
	rng := rand.New(rand.NewSource(5))
	task := func(i int) ID { return TaskID(fmt.Sprintf("t%03d", i)) }
	file := func(i int) ID { return DataID(fmt.Sprintf("d%03d", i)) }
	check := func(round int) {
		t.Helper()
		outs, ins := make(map[ID][]*Edge), make(map[ID][]*Edge)
		for _, e := range g.edges {
			outs[e.Src] = append(outs[e.Src], e)
			ins[e.Dst] = append(ins[e.Dst], e)
		}
		ids := make([]ID, 0, len(g.verts))
		for _, v := range g.verts {
			ids = append(ids, v.ID)
		}
		peers := func(es []*Edge, end func(*Edge) ID) []ID {
			var out []ID
			for _, e := range es {
				out = append(out, end(e))
			}
			slices.SortFunc(out, cmpID)
			return slices.Compact(out)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, id := range ids {
					if !slices.Equal(g.Out(id), outs[id]) || !slices.Equal(g.In(id), ins[id]) ||
						g.OutDegree(id) != len(outs[id]) || g.InDegree(id) != len(ins[id]) {
						errs <- fmt.Errorf("round %d: adjacency of %v differs from the edge list", round, id)
						return
					}
					if id.Kind != DataVertex {
						continue
					}
					prod := peers(ins[id], func(e *Edge) ID { return e.Src })
					cons := peers(outs[id], func(e *Edge) ID { return e.Dst })
					if !slices.Equal(g.Producers(id), prod) || !slices.Equal(g.Consumers(id), cons) {
						errs <- fmt.Errorf("round %d: producers or consumers of %v differ", round, id)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	tail := 0
	for round := 0; round < 8; round++ {
		// Task i writes file i and reads files below i, so the graph stays
		// acyclic; random indices land all over the canonical order.
		for k := 0; k < 30; k++ {
			i := 1 + rng.Intn(150)
			if g.Vertex(task(i)) == nil {
				_, _ = g.AddEdge(task(i), file(i), Producer, FlowProps{Volume: uint64(k + 1)})
			}
			_, _ = g.AddEdge(file(rng.Intn(i)), task(i), Consumer, FlowProps{Volume: uint64(k + 2)})
		}
		check(round)
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		last := order[len(order)-1]
		for k := 0; k < 3; k++ {
			tail++
			next := TaskID(fmt.Sprintf("z%03d", tail))
			if last.Kind == TaskVertex {
				next = DataID(fmt.Sprintf("z%03d", tail))
				_, _ = g.AddEdge(last, next, Producer, FlowProps{Volume: 1})
			} else {
				_, _ = g.AddEdge(last, next, Consumer, FlowProps{Volume: 1})
			}
			last = next
		}
		check(round)
	}
	if st := g.IndexStats(); st.Fast == 0 || st.Compactions < 8 {
		t.Fatalf("reads did not derive both kinds of snapshot: %+v", st)
	}
}
