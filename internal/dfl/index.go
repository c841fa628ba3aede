package dfl

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Index is the graph's compact indexed core: a dense-integer view of the
// vertex set plus CSR-style adjacency, sorted vertex/edge snapshots, the
// deterministic topological order, and per-graph aggregates (total volume,
// best flow rate, distinct producer/consumer sets per data vertex).
//
// An Index is an immutable snapshot shared by every reader. Snapshots are
// derived incrementally: mutating the graph (AddEdge, a new vertex,
// SetEdgeProps) accumulates a pending delta, and the next query derives a new
// snapshot from the previous one in O(delta) — new vertices are appended as
// overlay slots past the frozen canonical base, new edges extend shared
// seq-marked adjacency lists, the topological order grows by an exact suffix,
// and aggregates/fingerprint update from running sums. When the overlay
// outgrows the base (or the delta is not suffix-extendable) the snapshot is
// compacted: a full rebuild that re-freezes everything in canonical order.
// Old snapshots stay fully readable throughout — all shared structures are
// append-only with per-snapshot visibility bounds, so concurrent readers
// pinned to stale snapshots never observe later mutations.
//
// Dense vertex indices (slots) are stable for the lifetime of an epoch (the
// span between compactions): base slots [0,baseN) follow the canonical
// (kind, name) order frozen at compaction; overlay slots [baseN,n) follow
// insertion order. Canonical snapshots (fresh from compaction) additionally
// guarantee that slot order IS canonical order. Sorted views (Vertices,
// Edges) are canonical on every snapshot; on overlay snapshots they are
// materialized lazily in O(n).
//
// All slices returned by Index (and by the Graph query methods backed by it)
// are shared views: callers must not modify them.
type Index struct {
	// Base: frozen at the last compaction, shared by every snapshot of the
	// epoch. ids/verts are in canonical (kind, name) order.
	ids   []ID
	pos   map[ID]int32
	verts []*Vertex
	// nTasks splits the base: [0,nTasks) are tasks, [nTasks,baseN) are data.
	nTasks int
	baseN  int32

	edges []*Edge // base edges sorted by (src, dst); see edited for overrides

	// Base CSR adjacency. Out edges of base vertex i are
	// outEdges[outOff[i]:outOff[i+1]], in the per-vertex insertion order the
	// map-based adjacency had; outDst holds the matching destination slots so
	// relaxation loops never touch a map. Likewise for in/inSrc.
	outOff, inOff     []int32
	outEdges, inEdges []*Edge
	outDst, inSrc     []int32

	// Overlay: the delta accumulated since compaction, visible to this
	// snapshot. canonical is true when the overlay is empty (slot order is
	// canonical and the base arrays describe the graph exactly).
	canonical bool
	n         int // total vertices (base + overlay)
	nTasksAll int // total task vertices
	mEdges    int // total edges

	// extraIDs/extraVerts/extraAdj are prefixes of the epoch's shared
	// append-only overlay arrays, captured at derivation; index by
	// slot-baseN. extraEdges is the epoch's appended-edge log; seqMark bounds
	// which entries this snapshot sees (seq < seqMark).
	extraIDs   []ID
	extraVerts []*Vertex
	extraAdj   []*slotAdj
	extraEdges []*Edge
	seqMark    int32

	// posExtra maps overlay vertex IDs to slots. It is shared by the whole
	// epoch; entries with slot >= n belong to later snapshots and are
	// filtered out by Pos.
	posExtra *sync.Map

	// touched overrides adjacency for slots whose lists could not stay
	// shared: base slots that gained edges, and any slot with an edited edge.
	// Entries are immutable; the map is cloned copy-on-write per derivation.
	touched map[int32]*slotOverlay

	// edited maps edge pointers stored in the shared base/extra arrays to
	// their current copy-on-write replacement (SetEdgeProps).
	edited map[*Edge]*Edge

	// editedVerts maps vertex pointers stored in the shared verts/extraVerts
	// arrays to their current copy-on-write replacement (SetTaskProps /
	// SetDataProps).
	editedVerts map[*Vertex]*Vertex

	topo    []int32
	topoIDs []ID
	topoErr error

	totalVolume uint64
	bestRate    float64

	// prod/cons hold, per base data slot, the distinct producer and consumer
	// task IDs, sorted. Valid only for untouched base slots; overlay slots
	// are computed on demand.
	prod, cons [][]ID

	fpOnce  sync.Once
	fpReady atomic.Bool
	vertSum uint64
	edgeSum uint64
	fp      uint64

	vertsOnce   sync.Once
	sortedVerts []*Vertex
	sortedNT    int
	edgesOnce   sync.Once
	sortedEdges []*Edge
}

// Index returns the graph's indexed core, deriving a fresh snapshot from the
// pending mutation delta when the graph changed. The returned snapshot is
// safe for concurrent readers and stays valid (and readable) after further
// mutations.
func (g *Graph) Index() *Index {
	if ix := g.idx.Load(); ix != nil && !g.dirty.Load() {
		return ix
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if ix := g.idx.Load(); ix != nil && !g.dirty.Load() {
		return ix
	}
	ix := g.derive()
	g.idx.Store(ix)
	g.dirty.Store(false)
	return ix
}

// Invalidate requests a full rebuild of the indexed core, discarding the
// incremental delta. Structural mutations (AddEdge, new vertices) and
// SetEdgeProps flow through the O(delta) derivation automatically; call this
// only after mutating vertex or edge properties in place through
// previously-obtained pointers once analysis queries have already run (e.g.
// edge props via a FindEdge pointer) — the delta tracker cannot see those.
func (g *Graph) Invalidate() {
	g.force = true
	g.dirty.Store(true)
}

// cmpID is the canonical vertex order: tasks before data, names ascending.
func cmpID(a, b ID) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.Name < b.Name {
		return -1
	}
	if a.Name > b.Name {
		return 1
	}
	return 0
}

// cmpEdge is the canonical edge order: by (src, dst).
func cmpEdge(a, b *Edge) int {
	if c := cmpID(a.Src, b.Src); c != 0 {
		return c
	}
	return cmpID(a.Dst, b.Dst)
}

// buildIndex is the full (compacting) rebuild: everything re-frozen in
// canonical order with an empty overlay. It is also the correctness
// reference the incremental derivation is equivalence-tested against.
func buildIndex(g *Graph) *Index {
	n := len(g.vertices)
	ix := &Index{
		ids:       make([]ID, 0, n),
		pos:       make(map[ID]int32, n),
		canonical: true,
	}
	for id := range g.vertices {
		ix.ids = append(ix.ids, id)
	}
	slices.SortFunc(ix.ids, cmpID)
	ix.verts = make([]*Vertex, n)
	for i, id := range ix.ids {
		ix.pos[id] = int32(i)
		ix.verts[i] = g.vertices[id]
		if id.Kind == TaskVertex {
			ix.nTasks = i + 1
		}
	}
	ix.baseN = int32(n)
	ix.n = n
	ix.nTasksAll = ix.nTasks

	// CSR adjacency, preserving each vertex's insertion-order edge lists.
	m := len(g.edges)
	ix.mEdges = m
	ix.outOff = make([]int32, n+1)
	ix.inOff = make([]int32, n+1)
	ix.outEdges = make([]*Edge, 0, m)
	ix.inEdges = make([]*Edge, 0, m)
	ix.outDst = make([]int32, 0, m)
	ix.inSrc = make([]int32, 0, m)
	for i, id := range ix.ids {
		for _, e := range g.out[id] {
			ix.outEdges = append(ix.outEdges, e)
			ix.outDst = append(ix.outDst, ix.pos[e.Dst])
		}
		ix.outOff[i+1] = int32(len(ix.outEdges))
		for _, e := range g.in[id] {
			ix.inEdges = append(ix.inEdges, e)
			ix.inSrc = append(ix.inSrc, ix.pos[e.Src])
		}
		ix.inOff[i+1] = int32(len(ix.inEdges))
	}

	// Sorted edge snapshot: order by (src, dst) using dense indices, which
	// agree with ID ordering.
	ix.edges = make([]*Edge, m)
	copy(ix.edges, g.edges)
	slices.SortFunc(ix.edges, func(a, b *Edge) int {
		if c := ix.pos[a.Src] - ix.pos[b.Src]; c != 0 {
			return int(c)
		}
		return int(ix.pos[a.Dst] - ix.pos[b.Dst])
	})

	// Aggregates: one pass over the edge set.
	for _, e := range g.edges {
		ix.totalVolume += e.Props.Volume
		if r := e.Props.Rate(); r > ix.bestRate {
			ix.bestRate = r
		}
	}

	ix.buildTopo()
	ix.buildNeighbors()
	return ix
}

// buildTopo computes the deterministic Kahn order: the queue is seeded with
// zero-indegree vertices in canonical order and each pop appends its freed
// successors sorted — identical to the order the map-based TopoSort produced,
// but over dense integers.
func (ix *Index) buildTopo() {
	n := len(ix.ids)
	indeg := make([]int32, n)
	for i := range indeg {
		indeg[i] = ix.inOff[i+1] - ix.inOff[i]
	}
	queue := make([]int32, 0, n)
	for i := int32(0); i < int32(n); i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int32, 0, n)
	var freed []int32
	for head := 0; head < len(queue); head++ {
		vi := queue[head]
		order = append(order, vi)
		freed = freed[:0]
		for _, di := range ix.outDst[ix.outOff[vi]:ix.outOff[vi+1]] {
			indeg[di]--
			if indeg[di] == 0 {
				freed = append(freed, di)
			}
		}
		slices.Sort(freed)
		queue = append(queue, freed...)
	}
	if len(order) != n {
		ix.topoErr = fmt.Errorf("dfl: graph has a cycle (%d of %d vertices ordered)",
			len(order), n)
		return
	}
	ix.topo = order
	ix.topoIDs = make([]ID, n)
	for i, vi := range order {
		ix.topoIDs[i] = ix.ids[vi]
	}
}

// buildNeighbors computes, per data vertex, the distinct producer and
// consumer task sets in canonical order.
func (ix *Index) buildNeighbors() {
	n := len(ix.ids)
	ix.prod = make([][]ID, n)
	ix.cons = make([][]ID, n)
	var scratch []int32
	distinct := func(poss []int32) []ID {
		if len(poss) == 0 {
			return nil
		}
		scratch = append(scratch[:0], poss...)
		slices.Sort(scratch)
		scratch = slices.Compact(scratch)
		out := make([]ID, len(scratch))
		for i, p := range scratch {
			out[i] = ix.ids[p]
		}
		return out
	}
	for i := ix.nTasks; i < n; i++ {
		vi := int32(i)
		ix.prod[i] = distinct(ix.inSrc[ix.inOff[vi]:ix.inOff[vi+1]])
		ix.cons[i] = distinct(ix.outDst[ix.outOff[vi]:ix.outOff[vi+1]])
	}
}

// Len returns the number of vertices.
func (ix *Index) Len() int { return ix.n }

// Pos returns the dense slot of id, or -1 when absent from this snapshot.
func (ix *Index) Pos(id ID) int32 {
	if p, ok := ix.pos[id]; ok {
		return p
	}
	if ix.posExtra != nil {
		if v, ok := ix.posExtra.Load(id); ok {
			if p := v.(int32); int(p) < ix.n {
				return p
			}
		}
	}
	return -1
}

// IDAt returns the ID at dense slot i.
func (ix *Index) IDAt(i int32) ID {
	if i < ix.baseN {
		return ix.ids[i]
	}
	return ix.extraIDs[i-ix.baseN]
}

// VertexAt returns the vertex at dense slot i, with copy-on-write property
// edits applied.
func (ix *Index) VertexAt(i int32) *Vertex {
	var v *Vertex
	if i < ix.baseN {
		v = ix.verts[i]
	} else {
		v = ix.extraVerts[i-ix.baseN]
	}
	if ix.editedVerts != nil {
		if c, ok := ix.editedVerts[v]; ok {
			return c
		}
	}
	return v
}

// Topo returns the deterministic topological order as dense slots, or the
// cycle error. The slice is shared — do not modify.
func (ix *Index) Topo() ([]int32, error) { return ix.topo, ix.topoErr }

func (ix *Index) overlayFor(i int32) *slotOverlay {
	if ix.touched == nil {
		return nil
	}
	return ix.touched[i]
}

// Out returns the outgoing edges of dense slot i together with their
// destination slots. Both slices are shared — do not modify.
func (ix *Index) Out(i int32) ([]*Edge, []int32) {
	if ov := ix.overlayFor(i); ov != nil {
		return ov.outE, ov.outD
	}
	if i < ix.baseN {
		lo, hi := ix.outOff[i], ix.outOff[i+1]
		return ix.outEdges[lo:hi], ix.outDst[lo:hi]
	}
	h := ix.extraAdj[i-ix.baseN].out.Load()
	if h == nil {
		return nil, nil
	}
	k := h.visible(ix.seqMark)
	return h.edges[:k], h.peers[:k]
}

// In returns the incoming edges of dense slot i together with their source
// slots. Both slices are shared — do not modify.
func (ix *Index) In(i int32) ([]*Edge, []int32) {
	if ov := ix.overlayFor(i); ov != nil {
		return ov.inE, ov.inS
	}
	if i < ix.baseN {
		lo, hi := ix.inOff[i], ix.inOff[i+1]
		return ix.inEdges[lo:hi], ix.inSrc[lo:hi]
	}
	h := ix.extraAdj[i-ix.baseN].in.Load()
	if h == nil {
		return nil, nil
	}
	k := h.visible(ix.seqMark)
	return h.edges[:k], h.peers[:k]
}

// OutDegree returns the out-degree of dense slot i.
func (ix *Index) OutDegree(i int32) int {
	_, d := ix.Out(i)
	return len(d)
}

// InDegree returns the in-degree of dense slot i.
func (ix *Index) InDegree(i int32) int {
	_, s := ix.In(i)
	return len(s)
}

// canonVerts returns all vertices in canonical (kind, name) order and the
// task count. On canonical snapshots this is the base array; on overlay
// snapshots the merged view is materialized once, lazily.
func (ix *Index) canonVerts() ([]*Vertex, int) {
	if ix.canonical {
		return ix.verts, ix.nTasks
	}
	ix.vertsOnce.Do(func() {
		repl := func(v *Vertex) *Vertex {
			if c, ok := ix.editedVerts[v]; ok {
				return c
			}
			return v
		}
		base := ix.verts
		if len(ix.editedVerts) > 0 {
			base = make([]*Vertex, len(ix.verts))
			for i, v := range ix.verts {
				base[i] = repl(v)
			}
		}
		extras := make([]*Vertex, len(ix.extraVerts))
		for i, v := range ix.extraVerts {
			extras[i] = repl(v)
		}
		slices.SortFunc(extras, func(a, b *Vertex) int { return cmpID(a.ID, b.ID) })
		merged := make([]*Vertex, 0, ix.n)
		i, j := 0, 0
		for i < len(base) && j < len(extras) {
			if cmpID(base[i].ID, extras[j].ID) <= 0 {
				merged = append(merged, base[i])
				i++
			} else {
				merged = append(merged, extras[j])
				j++
			}
		}
		merged = append(merged, base[i:]...)
		merged = append(merged, extras[j:]...)
		ix.sortedVerts = merged
		ix.sortedNT = ix.nTasksAll
	})
	return ix.sortedVerts, ix.sortedNT
}

// canonEdges returns all edges in canonical (src, dst) order with
// copy-on-write edits applied. On canonical snapshots this is the base
// array; on overlay snapshots the merged view is materialized once, lazily.
func (ix *Index) canonEdges() []*Edge {
	if ix.canonical {
		return ix.edges
	}
	ix.edgesOnce.Do(func() {
		repl := func(e *Edge) *Edge {
			if c, ok := ix.edited[e]; ok {
				return c
			}
			return e
		}
		base := ix.edges
		if len(ix.edited) > 0 {
			base = make([]*Edge, len(ix.edges))
			for i, e := range ix.edges {
				base[i] = repl(e)
			}
		}
		extras := make([]*Edge, len(ix.extraEdges))
		for i, e := range ix.extraEdges {
			extras[i] = repl(e)
		}
		slices.SortFunc(extras, cmpEdge)
		merged := make([]*Edge, 0, len(base)+len(extras))
		i, j := 0, 0
		for i < len(base) && j < len(extras) {
			if cmpEdge(base[i], extras[j]) <= 0 {
				merged = append(merged, base[i])
				i++
			} else {
				merged = append(merged, extras[j])
				j++
			}
		}
		merged = append(merged, base[i:]...)
		merged = append(merged, extras[j:]...)
		ix.sortedEdges = merged
	})
	return ix.sortedEdges
}

// distinctTasks maps peer slots to their IDs, sorted canonically and
// deduplicated — the on-demand form of the cached prod/cons sets.
func (ix *Index) distinctTasks(peers []int32) []ID {
	if len(peers) == 0 {
		return nil
	}
	ids := make([]ID, len(peers))
	for i, p := range peers {
		ids[i] = ix.IDAt(p)
	}
	slices.SortFunc(ids, cmpID)
	return slices.Compact(ids)
}

// producersFor returns the distinct producer task IDs of data slot p.
func (ix *Index) producersFor(p int32) []ID {
	if p < ix.baseN && ix.overlayFor(p) == nil {
		return ix.prod[p]
	}
	_, src := ix.In(p)
	return ix.distinctTasks(src)
}

// consumersFor returns the distinct consumer task IDs of data slot p.
func (ix *Index) consumersFor(p int32) []ID {
	if p < ix.baseN && ix.overlayFor(p) == nil {
		return ix.cons[p]
	}
	_, dst := ix.Out(p)
	return ix.distinctTasks(dst)
}

// Fingerprint returns a 64-bit content hash of the snapshot, covering every
// vertex, edge, and property. It is a commutative multiset hash, so two
// graphs with identical content hash equal regardless of construction order,
// and incremental snapshots derive it in O(delta) from the previous sums. It
// keys analysis memoization (Memo), so fault-sweep seeds that produce
// identical DFLs skip re-analysis.
func (ix *Index) Fingerprint() uint64 {
	if ix.fpReady.Load() {
		return ix.fp
	}
	ix.fpOnce.Do(func() {
		if ix.fpReady.Load() {
			return
		}
		vs, es := fingerprintSums(ix)
		ix.vertSum, ix.edgeSum = vs, es
		ix.fp = combineFingerprint(ix.n, ix.mEdges, vs, es)
		ix.fpReady.Store(true)
	})
	return ix.fp
}
