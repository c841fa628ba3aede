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
// derived incrementally: appending to the graph (AddEdge, a new vertex)
// accumulates a pending delta, and the next query derives a new snapshot from
// the previous one in O(delta) — new vertices are appended as overlay slots
// past the frozen canonical base, new edges extend shared seq-marked
// adjacency lists, the topological order grows by an exact suffix, and
// aggregates/fingerprint update from running sums. When the overlay outgrows
// the base, the delta is not suffix-extendable, or it edits a property the
// previous snapshot saw (SetEdgeProps, SetTaskProps, SetDataProps), the
// snapshot is compacted: a full rebuild that re-freezes everything in
// canonical order. Old snapshots stay fully readable throughout — all shared
// structures are append-only with per-snapshot visibility bounds, and edits
// replace vertices and edges copy-on-write, so concurrent readers pinned to
// stale snapshots never observe later mutations.
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
	// epoch. ids/verts are in canonical (kind, name) order, which Pos
	// binary-searches.
	ids   []ID
	verts []*Vertex
	// nTasks splits the base: [0,nTasks) are tasks, [nTasks,baseN) are data.
	nTasks int
	baseN  int32

	edges []*Edge // base edges sorted by (src, dst)

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

	// touched overrides the out-lists of base slots that gained edges since
	// the compaction; no pre-existing slot ever gains an in-edge in an
	// overlay. Entries are immutable; the map is cloned copy-on-write per
	// derivation.
	touched map[int32]*slotOverlay

	topo    []int32
	topoIDs []ID
	topoErr error

	totalVolume uint64
	bestRate    float64

	// nbrs holds, per base data slot, the distinct producer and consumer
	// IDs, each set sorted, as sub-slices of one flat array: for the j-th
	// data slot (slot nTasks+j) the producers are nbrs[nbrOff[2j]:nbrOff[2j+1]]
	// and the consumers nbrs[nbrOff[2j+1]:nbrOff[2j+2]]. The producer sets
	// hold for every base slot, the consumer sets for untouched ones; overlay
	// slots are computed on demand.
	nbrs   []ID
	nbrOff []int32

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
//
// The fast path loads dirty before idx: a reader that sees dirty cleared by
// a derivation then loads the snapshot that derivation stored, never the
// one before it. Loading idx first, a reader racing the derivation could
// pair the previous snapshot with the rank table the derivation rewrote,
// and Locate would map an ID to the wrong slot.
func (g *Graph) Index() *Index {
	if !g.dirty.Load() {
		if ix := g.idx.Load(); ix != nil {
			return ix
		}
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
// SetEdgeProps/SetTaskProps/SetDataProps are tracked automatically; call this
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
// canonical order with an empty overlay. It hashes no ID and sorts no edge:
// the vertex order merges the slots added since the previous compaction into
// that compaction's order, and the CSR adjacency, the canonical edge order
// and the neighbor sets come from counting passes over slots.
func buildIndex(g *Graph) *Index {
	order, rank := g.canonicalOrder()
	n := len(order)
	ix := &Index{
		ids:       make([]ID, n),
		verts:     make([]*Vertex, n),
		baseN:     int32(n),
		n:         n,
		canonical: true,
	}
	for i, s := range order {
		v := g.verts[s]
		ix.ids[i] = v.ID
		ix.verts[i] = v
		if v.ID.Kind == TaskVertex {
			ix.nTasks = i + 1
		}
	}
	ix.nTasksAll = ix.nTasks

	// CSR adjacency, preserving each vertex's insertion-order edge lists:
	// count each position's degree, turn the counts into end offsets with a
	// running sum, then place the edges walking g.edges backwards and
	// decrementing the offsets, which leaves every offset at its list's start.
	m := len(g.edges)
	ix.mEdges = m
	ix.outOff = make([]int32, n+1)
	ix.inOff = make([]int32, n+1)
	ix.outEdges = make([]*Edge, m)
	ix.inEdges = make([]*Edge, m)
	ix.outDst = make([]int32, m)
	ix.inSrc = make([]int32, m)
	for _, p := range g.ends {
		ix.outOff[rank[p.src]]++
		ix.inOff[rank[p.dst]]++
	}
	for i := 1; i < n; i++ {
		ix.outOff[i] += ix.outOff[i-1]
		ix.inOff[i] += ix.inOff[i-1]
	}
	ix.outOff[n], ix.inOff[n] = int32(m), int32(m)
	for k := m - 1; k >= 0; k-- {
		e, p := g.edges[k], g.ends[k]
		s, d := rank[p.src], rank[p.dst]
		ix.outOff[s]--
		ix.outEdges[ix.outOff[s]], ix.outDst[ix.outOff[s]] = e, d
		ix.inOff[d]--
		ix.inEdges[ix.inOff[d]], ix.inSrc[ix.inOff[d]] = e, s
	}

	// Canonical edge order by (src, dst): walk destinations in canonical
	// order and append each in-edge to its source's bucket, so each bucket
	// is sorted by destination and duplicate endpoints keep insertion order.
	ix.edges = make([]*Edge, m)
	cur := slices.Clone(ix.outOff[:n])
	for d := 0; d < n; d++ {
		for k := ix.inOff[d]; k < ix.inOff[d+1]; k++ {
			s := ix.inSrc[k]
			ix.edges[cur[s]] = ix.inEdges[k]
			cur[s]++
		}
	}

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

// canonicalOrder returns the slots in canonical (kind, name) order and the
// inverse map from slot to position. Vertices are never removed, so it sorts
// only the slots added since the previous compaction and merges them into
// that compaction's order (kept in g.order, with g.rank, for the next one).
func (g *Graph) canonicalOrder() (order, rank []int32) {
	old, n := len(g.order), len(g.verts)
	added := make([]int32, n-old)
	for i := range added {
		added[i] = int32(old + i)
	}
	byID := func(a, b int32) int { return cmpID(g.verts[a].ID, g.verts[b].ID) }
	slices.SortFunc(added, byID)

	// Merge from the back: each added slot binary-searches its place in the
	// old prefix, and the old slots after it shift up as one block.
	order = slices.Grow(g.order, len(added))[:n]
	hi := old
	for j := len(added) - 1; j >= 0; j-- {
		a := added[j]
		at, _ := slices.BinarySearchFunc(order[:hi], a, byID)
		copy(order[at+j+1:], order[at:hi])
		order[at+j] = a
		hi = at
	}
	rank = slices.Grow(g.rank, n-len(g.rank))[:n]
	for p, s := range order {
		rank[s] = int32(p)
	}
	g.order, g.rank = order, rank
	return order, rank
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
// consumer sets in canonical order into the flat nbrs array, without
// sorting: producers are found walking sources in canonical order over the
// out-lists, consumers walking destinations over the in-lists, and a repeat
// of the peer just seen is a duplicate edge. The first pass counts the sets,
// the second fills them walking backwards from their ends.
func (ix *Index) buildNeighbors() {
	n, nt := int32(len(ix.ids)), int32(ix.nTasks)
	off := make([]int32, 2*(n-nt)+1)
	last := make([]int32, n) // the peer that last added to each data vertex's set
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			for k := 1; k < len(off); k++ {
				off[k] += off[k-1]
			}
			ix.nbrs = make([]ID, off[len(off)-1])
		}
		for set := int32(0); set < 2; set++ {
			vOff, peers := ix.outOff, ix.outDst // producers
			if set == 1 {
				vOff, peers = ix.inOff, ix.inSrc // consumers
			}
			for i := range last {
				last[i] = -1
			}
			for i := int32(0); i < n; i++ {
				p := i
				if pass == 1 {
					p = n - 1 - i
				}
				for _, d := range peers[vOff[p]:vOff[p+1]] {
					if d < nt || last[d] == p {
						continue
					}
					last[d] = p
					k := 2*(d-nt) + set
					if pass == 0 {
						off[k]++
					} else {
						off[k]--
						ix.nbrs[off[k]] = ix.ids[p]
					}
				}
			}
		}
	}
	ix.nbrOff = off
}

// Len returns the number of vertices.
func (ix *Index) Len() int { return ix.n }

// Pos returns the dense slot of id, or -1 when absent from this snapshot. A
// base vertex is found by binary search of the canonical base, whose tasks
// are [0,nTasks) and the rest [nTasks,baseN); an overlay vertex through the
// epoch's overlay table.
func (ix *Index) Pos(id ID) int32 {
	lo, end := 0, ix.nTasks
	if id.Kind != TaskVertex {
		lo, end = ix.nTasks, int(ix.baseN)
	}
	for hi := end; lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if c := ix.ids[m]; c.Kind < id.Kind || c.Kind == id.Kind && c.Name < id.Name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < end && ix.ids[lo] == id {
		return int32(lo)
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

// VertexAt returns the vertex at dense slot i.
func (ix *Index) VertexAt(i int32) *Vertex {
	if i < ix.baseN {
		return ix.verts[i]
	}
	return ix.extraVerts[i-ix.baseN]
}

// SortByID sorts slots by vertex ID. Slot order is ID order on a compacted
// snapshot, so there the sort confirms a presorted run.
func (ix *Index) SortByID(slots []int32) {
	slices.SortFunc(slots, func(a, b int32) int { return cmpID(ix.IDAt(a), ix.IDAt(b)) })
}

// SlotsByID returns every slot in ID order, the slots of Graph.Tasks then
// those of Graph.DataFiles, and the number of tasks. On a compacted snapshot
// that is slot order.
func (ix *Index) SlotsByID() ([]int32, int) {
	slots := make([]int32, ix.n)
	for i := range slots {
		slots[i] = int32(i)
	}
	if !ix.canonical {
		ix.SortByID(slots)
	}
	return slots, ix.nTasksAll
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

// Out returns the outgoing edges of dense slot i, in insertion order,
// together with their destination slots. Both slices are shared — do not
// modify; their capacity ends at their length, so an append copies.
func (ix *Index) Out(i int32) ([]*Edge, []int32) {
	if ov := ix.overlayFor(i); ov != nil {
		return ov.outE[:len(ov.outE):len(ov.outE)], ov.outD[:len(ov.outD):len(ov.outD)]
	}
	if i < ix.baseN {
		lo, hi := ix.outOff[i], ix.outOff[i+1]
		return ix.outEdges[lo:hi:hi], ix.outDst[lo:hi:hi]
	}
	h := ix.extraAdj[i-ix.baseN].out.Load()
	if h == nil {
		return nil, nil
	}
	k := h.visible(ix.seqMark)
	return h.edges[:k:k], h.peers[:k:k]
}

// In returns the incoming edges of dense slot i, in insertion order,
// together with their source slots. Both slices are shared — do not modify;
// their capacity ends at their length, so an append copies.
func (ix *Index) In(i int32) ([]*Edge, []int32) {
	if i < ix.baseN {
		lo, hi := ix.inOff[i], ix.inOff[i+1]
		return ix.inEdges[lo:hi:hi], ix.inSrc[lo:hi:hi]
	}
	h := ix.extraAdj[i-ix.baseN].in.Load()
	if h == nil {
		return nil, nil
	}
	k := h.visible(ix.seqMark)
	return h.edges[:k:k], h.peers[:k:k]
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
		base := ix.verts
		extras := slices.Clone(ix.extraVerts)
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

// canonEdges returns all edges in canonical (src, dst) order. On canonical
// snapshots this is the base array; on overlay snapshots the merged view is
// materialized once, lazily, with duplicate endpoints in insertion order as
// a compaction keeps them.
func (ix *Index) canonEdges() []*Edge {
	if ix.canonical {
		return ix.edges
	}
	ix.edgesOnce.Do(func() {
		base := ix.edges
		extras := slices.Clone(ix.extraEdges)
		slices.SortStableFunc(extras, cmpEdge)
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

// neighborSet returns set k of the flat neighbor array (see nbrs), or nil
// when it is empty.
func (ix *Index) neighborSet(k int32) []ID {
	if lo, hi := ix.nbrOff[k], ix.nbrOff[k+1]; lo < hi {
		return ix.nbrs[lo:hi:hi]
	}
	return nil
}

// Producers returns the distinct producer task IDs of data slot p, sorted
// (shared — do not modify). p must not be a task slot.
func (ix *Index) Producers(p int32) []ID {
	if p < ix.baseN {
		return ix.neighborSet(2 * (p - int32(ix.nTasks)))
	}
	_, src := ix.In(p)
	return ix.distinctTasks(src)
}

// Consumers returns the distinct consumer task IDs of data slot p, sorted
// (shared — do not modify). p must not be a task slot.
func (ix *Index) Consumers(p int32) []ID {
	if p < ix.baseN && ix.overlayFor(p) == nil {
		return ix.neighborSet(2*(p-int32(ix.nTasks)) + 1)
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
