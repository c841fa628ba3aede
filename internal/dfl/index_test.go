package dfl

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func less(a, b ID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Name < b.Name
}

// shadowGraph is a naive reference implementation mirroring the seed's
// map-based query semantics: insertion-order adjacency, sort-on-demand
// snapshots, Kahn topological order with sorted seeds and sorted freed
// successors. The property test checks the indexed core against it.
type shadowGraph struct {
	verts map[ID]bool
	out   map[ID][]*Edge
	in    map[ID][]*Edge
	edges []*Edge
}

func newShadow() *shadowGraph {
	return &shadowGraph{verts: make(map[ID]bool), out: make(map[ID][]*Edge), in: make(map[ID][]*Edge)}
}

func (s *shadowGraph) addEdge(e *Edge) {
	s.verts[e.Src] = true
	s.verts[e.Dst] = true
	s.edges = append(s.edges, e)
	s.out[e.Src] = append(s.out[e.Src], e)
	s.in[e.Dst] = append(s.in[e.Dst], e)
}

func (s *shadowGraph) ids() []ID {
	out := make([]ID, 0, len(s.verts))
	for id := range s.verts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func (s *shadowGraph) sortedEdges() []*Edge {
	out := append([]*Edge(nil), s.edges...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return less(out[i].Src, out[j].Src)
		}
		return less(out[i].Dst, out[j].Dst)
	})
	return out
}

// topo reproduces the seed's deterministic Kahn order over ID maps.
func (s *shadowGraph) topo() ([]ID, bool) {
	indeg := make(map[ID]int)
	for _, e := range s.edges {
		indeg[e.Dst]++
	}
	var queue []ID
	for id := range s.verts {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return less(queue[i], queue[j]) })
	var order []ID
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		var freed []ID
		for _, e := range s.out[id] {
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				freed = append(freed, e.Dst)
			}
		}
		sort.Slice(freed, func(i, j int) bool { return less(freed[i], freed[j]) })
		queue = append(queue, freed...)
	}
	return order, len(order) == len(s.verts)
}

func (s *shadowGraph) distinctTasks(edges []*Edge) []ID {
	seen := make(map[ID]bool)
	var out []ID
	for _, e := range edges {
		for _, id := range []ID{e.Src, e.Dst} {
			if id.Kind == TaskVertex && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// randomDFL builds a random bipartite DAG: vertices v0..v(n-1) with random
// kinds, edges only forward (i < j) between opposite kinds, so acyclicity
// holds by construction. Returns the graph and its shadow.
func randomDFL(rng *rand.Rand, n, extraEdges int) (*Graph, *shadowGraph) {
	g := New()
	sh := newShadow()
	kinds := make([]VertexKind, n)
	ids := make([]ID, n)
	for i := range ids {
		kinds[i] = VertexKind(rng.Intn(2))
		name := fmt.Sprintf("v%03d", i)
		if kinds[i] == TaskVertex {
			ids[i] = TaskID(name)
			g.AddTask(name)
		} else {
			ids[i] = DataID(name)
			g.AddData(name)
		}
		sh.verts[ids[i]] = true
	}
	used := make(map[[2]int]bool)
	addRandEdge := func() {
		i, j := rng.Intn(n), rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		// Skip self/same-kind pairs and duplicates: collector-built DFL
		// graphs have at most one edge per (src, dst).
		if i == j || kinds[i] == kinds[j] || used[[2]int{i, j}] {
			return
		}
		used[[2]int{i, j}] = true
		kind := Producer
		if kinds[i] == DataVertex {
			kind = Consumer
		}
		props := FlowProps{
			Ops:     uint64(rng.Intn(100)),
			Volume:  uint64(rng.Intn(1 << 20)),
			Latency: rng.Float64() * 10,
		}
		e, err := g.AddEdge(ids[i], ids[j], kind, props)
		if err != nil {
			panic(err)
		}
		sh.addEdge(e)
	}
	// A forward chain-ish sweep plus random extras.
	for k := 0; k < n+extraEdges; k++ {
		addRandEdge()
	}
	return g, sh
}

func idsEqual(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func edgesEqual(a, b []*Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstShadow compares every Index-backed query with the naive
// reference.
func checkAgainstShadow(t *testing.T, g *Graph, sh *shadowGraph) {
	t.Helper()
	wantIDs := sh.ids()
	gotVerts := g.Vertices()
	if len(gotVerts) != len(wantIDs) {
		t.Fatalf("Vertices: got %d, want %d", len(gotVerts), len(wantIDs))
	}
	for i, v := range gotVerts {
		if v.ID != wantIDs[i] {
			t.Fatalf("Vertices[%d] = %v, want %v", i, v.ID, wantIDs[i])
		}
	}
	// Tasks/DataFiles are the kind-partitioned prefixes of the same order.
	nt := 0
	for _, id := range wantIDs {
		if id.Kind == TaskVertex {
			nt++
		}
	}
	if len(g.Tasks()) != nt || len(g.DataFiles()) != len(wantIDs)-nt {
		t.Fatalf("Tasks/DataFiles split = %d/%d, want %d/%d",
			len(g.Tasks()), len(g.DataFiles()), nt, len(wantIDs)-nt)
	}
	if !edgesEqual(g.Edges(), sh.sortedEdges()) {
		t.Fatal("Edges snapshot differs from reference sort")
	}
	wantTopo, acyclic := sh.topo()
	gotTopo, err := g.TopoSort()
	if acyclic != (err == nil) {
		t.Fatalf("TopoSort acyclicity: got err=%v, reference acyclic=%v", err, acyclic)
	}
	if acyclic && !idsEqual(gotTopo, wantTopo) {
		t.Fatalf("TopoSort order differs:\n got %v\nwant %v", gotTopo, wantTopo)
	}
	var totalVol uint64
	var bestRate float64
	for _, e := range sh.edges {
		totalVol += e.Props.Volume
		if r := e.Props.Rate(); r > bestRate {
			bestRate = r
		}
	}
	if g.TotalVolume() != totalVol {
		t.Fatalf("TotalVolume = %d, want %d", g.TotalVolume(), totalVol)
	}
	if g.BestRate() != bestRate {
		t.Fatalf("BestRate = %g, want %g", g.BestRate(), bestRate)
	}
	for _, id := range wantIDs {
		if !edgesEqual(g.Out(id), sh.out[id]) || !edgesEqual(g.In(id), sh.in[id]) {
			t.Fatalf("adjacency of %v differs from insertion order", id)
		}
		if g.OutDegree(id) != len(sh.out[id]) || g.InDegree(id) != len(sh.in[id]) {
			t.Fatalf("degree of %v differs", id)
		}
		if id.Kind == DataVertex {
			if !idsEqual(g.Producers(id), sh.distinctTasks(sh.in[id])) {
				t.Fatalf("Producers(%v) differs", id)
			}
			if !idsEqual(g.Consumers(id), sh.distinctTasks(sh.out[id])) {
				t.Fatalf("Consumers(%v) differs", id)
			}
		}
	}
	// Dense index accessors agree with the ID view. Overlay snapshots place
	// delta vertices after the base, so slot order is not the canonical sort;
	// what must hold is the Pos/IDAt bijection over exactly the live IDs.
	ix := g.Index()
	seenSlot := make(map[int32]bool, len(wantIDs))
	for _, id := range wantIDs {
		p := ix.Pos(id)
		if p < 0 || int(p) >= ix.Len() || ix.IDAt(p) != id {
			t.Fatalf("Pos/IDAt round-trip broken for %v (slot %d)", id, p)
		}
		if seenSlot[p] {
			t.Fatalf("slot %d assigned to two IDs", p)
		}
		seenSlot[p] = true
	}
	for i := int32(0); i < int32(ix.Len()); i++ {
		outs, dsts := ix.Out(i)
		for k := range outs {
			if ix.IDAt(dsts[k]) != outs[k].Dst {
				t.Fatalf("Out dense dst mismatch at vertex %d", i)
			}
		}
		ins, srcs := ix.In(i)
		for k := range ins {
			if ix.IDAt(srcs[k]) != ins[k].Src {
				t.Fatalf("In dense src mismatch at vertex %d", i)
			}
		}
	}
}

// TestIndexMatchesReferenceOnRandomDAGs is the property-based equivalence
// test: on randomized DFL DAGs, every query served by the indexed core must
// answer exactly what the seed's map-based implementation answered, including
// after interleaved mutation (which must invalidate the cached snapshot).
func TestIndexMatchesReferenceOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g, sh := randomDFL(rng, n, rng.Intn(3*n))
		checkAgainstShadow(t, g, sh)

		// Mutate after querying: the snapshot must be rebuilt, not stale.
		name := fmt.Sprintf("late%02d", trial)
		tv, dv := g.AddTask(name), g.AddData(name)
		e, err := g.AddEdge(tv.ID, dv.ID, Producer, FlowProps{Volume: 7, Latency: 1})
		if err != nil {
			t.Fatal(err)
		}
		sh.verts[tv.ID] = true
		sh.verts[dv.ID] = true
		sh.addEdge(e)
		checkAgainstShadow(t, g, sh)
	}
}

// TestIndexInvalidateOnPropMutation checks the explicit Invalidate escape
// hatch: mutating edge props through FindEdge after queries ran must change
// cached aggregates once Invalidate is called.
func TestIndexInvalidateOnPropMutation(t *testing.T) {
	g := New()
	g.AddTask("t")
	g.AddData("d")
	if _, err := g.AddEdge(TaskID("t"), DataID("d"), Producer, FlowProps{Volume: 10, Latency: 2}); err != nil {
		t.Fatal(err)
	}
	if got := g.TotalVolume(); got != 10 {
		t.Fatalf("TotalVolume = %d, want 10", got)
	}
	fp := g.Fingerprint()
	g.FindEdge(TaskID("t"), DataID("d")).Props.Volume = 20
	g.Invalidate()
	if got := g.TotalVolume(); got != 20 {
		t.Fatalf("TotalVolume after Invalidate = %d, want 20", got)
	}
	if g.Fingerprint() == fp {
		t.Fatal("fingerprint unchanged after property mutation + Invalidate")
	}
}

// TestFingerprintContentIdentity checks that structurally and numerically
// identical graphs collide and any content difference separates them.
func TestFingerprintContentIdentity(t *testing.T) {
	build := func(vol uint64) *Graph {
		g := New()
		g.AddTask("a")
		g.AddData("x")
		g.AddTask("b")
		if _, err := g.AddEdge(TaskID("a"), DataID("x"), Producer, FlowProps{Volume: vol, Latency: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge(DataID("x"), TaskID("b"), Consumer, FlowProps{Volume: vol, Latency: 2}); err != nil {
			t.Fatal(err)
		}
		return g
	}
	if build(5).Fingerprint() != build(5).Fingerprint() {
		t.Fatal("identical graphs got different fingerprints")
	}
	if build(5).Fingerprint() == build(6).Fingerprint() {
		t.Fatal("different volumes got the same fingerprint")
	}
	g := build(5)
	g.AddData("extra")
	if g.Fingerprint() == build(5).Fingerprint() {
		t.Fatal("extra vertex did not change the fingerprint")
	}
}
