package dfl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// reference is the test oracle for one graph: a snapshot rebuilt by sorting,
// plus the views a snapshot under test builds on first use, computed here
// eagerly and without that code — the canonical edge order, every data
// vertex's producer and consumer sets, and the content fingerprint summed
// over the graph's own vertex and edge lists. Its Producers, Consumers,
// canonEdges and Fingerprint shadow the embedded snapshot's, so a comparison
// never reads the code it checks.
type reference struct {
	*Index
	edges       []*Edge
	prods, cons [][]ID // by slot; nil for task slots
	fp          uint64
}

func (r *reference) Producers(p int32) []ID { return r.prods[p] }
func (r *reference) Consumers(p int32) []ID { return r.cons[p] }
func (r *reference) canonEdges() []*Edge    { return r.edges }
func (r *reference) Fingerprint() uint64    { return r.fp }

// buildIndexReference is the sort-based rebuild that counting-pass
// compaction replaced, kept as its test oracle: IDs comparison-sorted, CSR
// adjacency from per-vertex lists appended in g.edges order (not from the
// Graph's adjacency reads, which serve from the snapshot under test), edges
// stable-sorted by (src, dst) through position lookups in an ID-keyed table
// (so duplicate endpoints keep insertion order), each neighbor set sorted
// per data vertex, and the fingerprint summed over g's vertices and edges.
func buildIndexReference(g *Graph) *reference {
	n := g.NumVertices()
	ix := &Index{
		ids:       make([]ID, 0, n),
		canonical: true,
	}
	for id := range g.slots {
		ix.ids = append(ix.ids, id)
	}
	slices.SortFunc(ix.ids, cmpID)
	ix.verts = make([]*Vertex, n)
	pos := make(map[ID]int32, n)
	for i, id := range ix.ids {
		pos[id] = int32(i)
		ix.verts[i] = g.Vertex(id)
		if id.Kind == TaskVertex {
			ix.nTasks = i + 1
		}
	}
	ix.baseN = int32(n)
	ix.n = n
	ix.nTasksAll = ix.nTasks

	m := g.NumEdges()
	ix.mEdges = m
	ix.outOff = make([]int32, n+1)
	ix.inOff = make([]int32, n+1)
	ix.outEdges = make([]*Edge, 0, m)
	ix.inEdges = make([]*Edge, 0, m)
	ix.outDst = make([]int32, 0, m)
	ix.inSrc = make([]int32, 0, m)
	outs, ins := make([][]*Edge, n), make([][]*Edge, n)
	for _, e := range g.edges {
		outs[pos[e.Src]] = append(outs[pos[e.Src]], e)
		ins[pos[e.Dst]] = append(ins[pos[e.Dst]], e)
	}
	for i := range ix.ids {
		for _, e := range outs[i] {
			ix.outEdges = append(ix.outEdges, e)
			ix.outDst = append(ix.outDst, pos[e.Dst])
		}
		ix.outOff[i+1] = int32(len(ix.outEdges))
		for _, e := range ins[i] {
			ix.inEdges = append(ix.inEdges, e)
			ix.inSrc = append(ix.inSrc, pos[e.Src])
		}
		ix.inOff[i+1] = int32(len(ix.inEdges))
	}

	for _, e := range g.edges {
		ix.totalVolume += e.Props.Volume
		if r := e.Props.Rate(); r > ix.bestRate {
			ix.bestRate = r
		}
	}
	ix.buildTopo()

	ref := &reference{Index: ix, prods: make([][]ID, n), cons: make([][]ID, n)}
	ref.edges = slices.Clone(g.edges)
	slices.SortStableFunc(ref.edges, func(a, b *Edge) int {
		if c := pos[a.Src] - pos[b.Src]; c != 0 {
			return int(c)
		}
		return int(pos[a.Dst] - pos[b.Dst])
	})
	distinct := func(peers []int32) []ID {
		set := slices.Clone(peers)
		slices.Sort(set)
		var out []ID
		for _, p := range slices.Compact(set) {
			out = append(out, ix.ids[p])
		}
		return out
	}
	for i := ix.nTasks; i < n; i++ {
		ref.prods[i] = distinct(ix.inSrc[ix.inOff[i]:ix.inOff[i+1]])
		ref.cons[i] = distinct(ix.outDst[ix.outOff[i]:ix.outOff[i+1]])
	}
	var vs, es uint64
	for _, v := range g.verts {
		vs += vertexHash(v)
	}
	for _, e := range g.edges {
		es += edgeHash(e)
	}
	ref.fp = combineFingerprint(n, m, vs, es)
	return ref
}

// assertCompactionMatchesReference deep-compares a compacted snapshot with
// the reference rebuild of the same graph, field by field, and then on what
// its readers see.
func assertCompactionMatchesReference(t *testing.T, ix *Index, ref *reference) {
	t.Helper()
	if !ix.canonical || ref.canonical != ix.canonical {
		t.Fatal("a compacted snapshot must be canonical")
	}
	if ix.n != ref.n || ix.baseN != ref.baseN || ix.nTasks != ref.nTasks ||
		ix.nTasksAll != ref.nTasksAll || ix.mEdges != ref.mEdges {
		t.Fatalf("sizes: n %d/%d baseN %d/%d tasks %d/%d all %d/%d edges %d/%d",
			ix.n, ref.n, ix.baseN, ref.baseN, ix.nTasks, ref.nTasks,
			ix.nTasksAll, ref.nTasksAll, ix.mEdges, ref.mEdges)
	}
	same := func(what string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s differs from the reference rebuild", what)
		}
	}
	same("ids", slices.Equal(ix.ids, ref.ids))
	same("verts", slices.Equal(ix.verts, ref.verts))
	for i, id := range ref.ids {
		same("Pos of "+id.String(), ix.Pos(id) == int32(i))
	}
	same("outOff", slices.Equal(ix.outOff, ref.outOff))
	same("inOff", slices.Equal(ix.inOff, ref.inOff))
	same("outEdges", slices.Equal(ix.outEdges, ref.outEdges))
	same("inEdges", slices.Equal(ix.inEdges, ref.inEdges))
	same("outDst", slices.Equal(ix.outDst, ref.outDst))
	same("inSrc", slices.Equal(ix.inSrc, ref.inSrc))
	same("topo", slices.Equal(ix.topo, ref.topo))
	same("topoIDs", slices.Equal(ix.topoIDs, ref.topoIDs))
	if (ix.topoErr == nil) != (ref.topoErr == nil) ||
		(ix.topoErr != nil && ix.topoErr.Error() != ref.topoErr.Error()) {
		t.Fatalf("cycle error: compaction %v, reference %v", ix.topoErr, ref.topoErr)
	}
	if ix.totalVolume != ref.totalVolume || ix.bestRate != ref.bestRate {
		t.Fatalf("totals: volume %d/%d best rate %g/%g",
			ix.totalVolume, ref.totalVolume, ix.bestRate, ref.bestRate)
	}
	assertSnapshotMatches(t, ix, ref)
}

// firstEdge returns the first edge in insertion order that match accepts, or
// nil. The compaction trace reads the graph through it between queries, so
// that only its queries derive snapshots.
func firstEdge(g *Graph, match func(*Edge) bool) *Edge {
	for _, e := range g.edges {
		if match(e) {
			return e
		}
	}
	return nil
}

// TestCompactionMatchesReference grows seeded layered DAGs across several
// compactions interleaved with fast derivations — duplicate endpoints, a
// cycle, property edits and Invalidate included — and checks every
// compaction against the sort-based reference on every field of the
// snapshot, and every snapshot, compacted or overlay, on what its readers
// see: each slot's producers and consumers (nil for a task), the canonical
// edges and the fingerprint. A third of the snapshots are checked only after
// the trace ends, so their views are built after later derivations. Between
// its queries the trace reads the graph only through calls that derive no
// snapshot, and each seed's derivation counts are pinned, so every
// compaction the trace pays is one the reference checks.
func TestCompactionMatchesReference(t *testing.T) {
	wantStats := map[int64]IndexStats{7: {Derivations: 26, Fast: 12, Compactions: 14}}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := New()
			var tasks, data []ID
			vol := func() FlowProps {
				return FlowProps{Volume: uint64(1 + rng.Intn(1000)), Latency: float64(1+rng.Intn(8)) / 2}
			}
			// Every third snapshot is pinned unread: its reference is
			// taken at once, but its views built on first use (edges,
			// producer and consumer sets, the fingerprint) are first read
			// when the trace ends, after the writer has moved on.
			type pin struct {
				ix        *Index
				ref       *reference
				compacted bool
			}
			check := func(p pin) {
				t.Helper()
				if p.compacted {
					assertCompactionMatchesReference(t, p.ix, p.ref)
				} else {
					assertSnapshotMatches(t, p.ix, p.ref)
				}
			}
			var pins []pin
			queries := 0
			query := func() {
				t.Helper()
				before := g.IndexStats().Compactions
				ix := g.Index()
				p := pin{ix, buildIndexReference(g), g.IndexStats().Compactions > before}
				if queries++; queries%3 == 0 {
					pins = append(pins, p)
					return
				}
				check(p)
			}
			for layer := 0; layer < 6; layer++ {
				// A layer of tasks reading earlier data and writing new data;
				// names are drawn at random so new vertices land all over the
				// previous canonical order.
				for i := 0; i < 3+rng.Intn(6); i++ {
					tk := TaskID(fmt.Sprintf("t%03d", rng.Intn(1000)))
					if g.Vertex(tk) != nil {
						continue
					}
					g.AddTask(tk.Name)
					for r := 0; r < rng.Intn(3) && len(data) > 0; r++ {
						d := data[rng.Intn(len(data))]
						if g.FindEdge(d, tk) == nil {
							_, _ = g.AddEdge(d, tk, Consumer, vol())
						}
					}
					d := DataID(fmt.Sprintf("d%03d", rng.Intn(1000)))
					if g.Vertex(d) == nil {
						g.AddData(d.Name)
						data = append(data, d)
					}
					if g.FindEdge(tk, d) == nil {
						_, _ = g.AddEdge(tk, d, Producer, vol())
					}
					tasks = append(tasks, tk)
				}
				// Duplicate endpoints: a second, unchecked edge between an
				// existing pair keeps its insertion order after the first.
				if rng.Intn(2) == 0 && len(data) > 0 {
					d := data[rng.Intn(len(data))]
					if e := firstEdge(g, func(e *Edge) bool { return e.Dst == d }); e != nil {
						g.AddUncheckedEdge(e.Src, e.Dst, e.Kind, vol())
					}
				}
				query()

				// Frontier growth off the topological tail: fast derivations.
				for step := 0; step < 3; step++ {
					order, err := g.TopoSort()
					if err != nil || len(order) == 0 {
						break
					}
					a := order[len(order)-1]
					name := fmt.Sprintf("f%d_%d", layer, step)
					if a.Kind == TaskVertex {
						_, _ = g.AddEdge(a, g.AddData(name).ID, Producer, vol())
					} else {
						_, _ = g.AddEdge(a, g.AddTask(name).ID, Consumer, vol())
					}
					query()
				}

				// Property edits through the tracked delta path.
				if len(tasks) > 0 {
					tk := tasks[rng.Intn(len(tasks))]
					p := g.Vertex(tk).Task
					p.Lifetime += 1.5
					g.SetTaskProps(tk.Name, p)
				}
				if len(data) > 0 {
					d := data[rng.Intn(len(data))]
					p := g.Vertex(d).Data
					p.Size += 64
					g.SetDataProps(d.Name, p)
					if e := firstEdge(g, func(e *Edge) bool { return e.Dst == d }); e != nil {
						g.SetEdgeProps(e.Src, e.Dst, vol())
					}
				}
				query()

				switch layer {
				case 2:
					// Untracked in-place edit plus the Invalidate escape hatch.
					if es := g.Edges(); len(es) > 0 {
						g.FindEdge(es[0].Src, es[0].Dst).Props.Ops += 5
						g.Invalidate()
						query()
					}
				case 4:
					// Close a cycle: the oldest task reads its own output.
					tk := tasks[0]
					out := firstEdge(g, func(e *Edge) bool { return e.Src == tk })
					_, _ = g.AddEdge(out.Dst, tk, Consumer, vol())
					query()
				}
			}
			want, ok := wantStats[seed]
			if !ok {
				want = IndexStats{Derivations: 29, Fast: 15, Compactions: 14}
			}
			if st := g.IndexStats(); st != want {
				t.Fatalf("trace derived %+v, want %+v", st, want)
			}
			kinds := map[bool]int{}
			for _, p := range pins {
				check(p)
				kinds[p.compacted]++
			}
			if kinds[true] == 0 || kinds[false] == 0 {
				t.Fatalf("pinned %d compacted and %d overlay snapshots, want both kinds",
					kinds[true], kinds[false])
			}
			if _, err := g.TopoSort(); err == nil {
				t.Fatal("the closed cycle must be reported")
			}
		})
	}
}

// TestPosAbsentIDs checks Pos on IDs a snapshot lacks: a name before the
// first, after the last and between two neighbours, the empty name, the same
// name under the other kind, and an unknown kind. It checks them on a
// canonical snapshot, on an overlay snapshot derived from it in O(delta), and
// on the canonical snapshot again once the overlay's vertex exists, and
// checks that every present ID, an unknown-kind vertex included, resolves to
// its slot.
func TestPosAbsentIDs(t *testing.T) {
	g := New()
	mustEdge := func(src, dst ID, kind EdgeKind) {
		t.Helper()
		if _, err := g.AddEdge(src, dst, kind, FlowProps{Volume: 1, Latency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// task:b → data:c → task:d → data:e; canonical slots b, d, c, e.
	mustEdge(TaskID("b"), DataID("c"), Producer)
	mustEdge(DataID("c"), TaskID("d"), Consumer)
	mustEdge(TaskID("d"), DataID("e"), Producer)
	absent := []ID{
		TaskID("a"), DataID("a"), // before the first
		TaskID("z"), DataID("z"), // after the last
		TaskID("bb"), DataID("cc"), // between two neighbours
		TaskID(""), DataID(""), // the empty name
		TaskID("c"), DataID("b"), DataID("d"), TaskID("e"), // the other kind
		{Kind: 7, Name: "c"}, {Kind: 7, Name: ""}, // an unknown kind
	}
	check := func(what string, ix *Index, present []ID, absent []ID) {
		t.Helper()
		for _, id := range present {
			if p := ix.Pos(id); p < 0 || ix.IDAt(p) != id {
				t.Fatalf("%s: Pos(%v) = %d", what, id, p)
			}
		}
		for _, id := range absent {
			if p := ix.Pos(id); p != -1 {
				t.Fatalf("%s: Pos(%v) = %d for an absent ID", what, id, p)
			}
		}
	}
	canon := g.Index()
	base := []ID{TaskID("b"), TaskID("d"), DataID("c"), DataID("e")}
	if !canon.canonical {
		t.Fatal("the first snapshot must be canonical")
	}
	check("canonical", canon, base, absent)

	// A consumer of the topological tail is an O(delta) append.
	mustEdge(DataID("e"), TaskID("f"), Consumer)
	over := g.Index()
	if over.canonical || g.IndexStats().Fast != 1 {
		t.Fatalf("expected an overlay snapshot, got canonical=%v stats %+v", over.canonical, g.IndexStats())
	}
	check("overlay", over, append(slices.Clone(base), TaskID("f")),
		append(slices.Clone(absent), DataID("f"), TaskID("ff"), TaskID("g")))
	check("pinned canonical", canon, base, []ID{TaskID("f")})

	// Vertices of a kind beyond data sort after the data vertices and are
	// searched with them.
	g.AddUncheckedEdge(ID{Kind: 2, Name: "q"}, DataID("c"), Producer, FlowProps{Volume: 1})
	g.Invalidate()
	mixed := g.Index()
	check("mixed kinds", mixed, append(slices.Clone(base), TaskID("f"), ID{Kind: 2, Name: "q"}),
		[]ID{{Kind: 2, Name: "c"}, {Kind: 2, Name: "z"}, DataID("q"), TaskID("q")})
}
