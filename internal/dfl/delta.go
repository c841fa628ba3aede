package dfl

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Compaction thresholds: the incremental fast path bails out to a full
// rebuild when the overlay would outgrow these bounds, keeping per-snapshot
// clone work O(1) and overlay reads cache-friendly. The extras bound is
// geometric (proportional to the base), so a pure streaming build compacts
// O(log n) times and the total compaction work stays O(n).
const (
	maxTouchedSlots = 256
	maxTouchedEdges = 4096
	minExtraCap     = 64
)

// pending is the property-edit part of the mutation delta accumulated since
// the last snapshot derivation. The structural part needs no record:
// vertices and edges are only ever appended, so the delta's new vertices are
// the slots past the previous snapshot's vertex count and its new edges the
// g.edges indices past its edge count, each read at its final value. An edit
// the previous snapshot saw sends the derivation to compaction, which uses
// these records to carry the fingerprint sums forward.
type pending struct {
	// editOld maps a g.edges index to the pointer the previous snapshot saw
	// (recorded on the first SetEdgeProps for that edge since the last
	// derivation).
	editOld map[int32]*Edge
	// editVertOld maps a vertex slot to the pointer the previous snapshot saw
	// (first SetTaskProps/SetDataProps since the last derivation).
	editVertOld map[int32]*Vertex
}

// epoch is the shared overlay state between two compactions. Its arrays are
// append-only and extended only during snapshot derivation (under g.mu);
// snapshots capture prefix headers, so concurrent readers of older snapshots
// never observe later appends.
type epoch struct {
	extraIDs   []ID
	extraVerts []*Vertex
	extraAdj   []*slotAdj
	extraEdges []*Edge
	posExtra   *sync.Map
	// topoSlots/topoIDs extend the compaction-time topological order by
	// exact suffixes; valid only while every derivation kept topoErr nil.
	topoSlots []int32
	topoIDs   []ID
}

// adjHalf is one direction of an overlay slot's adjacency. The three slices
// grow in lockstep; seqs holds each edge's epoch sequence number (its index
// in epoch.extraEdges), ascending, so a snapshot sees exactly the prefix
// with seq < its seqMark.
type adjHalf struct {
	edges []*Edge
	peers []int32
	seqs  []int32
}

// visible returns the length of the prefix visible at mark.
func (h *adjHalf) visible(mark int32) int {
	lo, hi := 0, len(h.seqs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.seqs[mid] < mark {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// slotAdj is the shared adjacency of one overlay slot. Appends build a new
// header and publish it atomically, so readers holding older snapshots (and
// thus smaller seqMarks) race-freely read the prefix they can see.
type slotAdj struct {
	out, in atomic.Pointer[adjHalf]
}

func appendHalf(p *atomic.Pointer[adjHalf], e *Edge, peer, seq int32) {
	h := p.Load()
	nh := &adjHalf{}
	if h != nil {
		nh.edges = append(h.edges, e)
		nh.peers = append(h.peers, peer)
		nh.seqs = append(h.seqs, seq)
	} else {
		nh.edges = []*Edge{e}
		nh.peers = []int32{peer}
		nh.seqs = []int32{seq}
	}
	p.Store(nh)
}

// slotOverlay is the out-list of a base slot that gained edges since the
// compaction: its CSR span followed by the appended edges. Entries are
// immutable once their creating derivation publishes; later derivations
// clone before appending.
type slotOverlay struct {
	outE []*Edge
	outD []int32
}

// IndexStats counts snapshot derivations since the graph was created —
// useful for asserting that a workload actually stays on the O(delta) path.
type IndexStats struct {
	// Derivations counts snapshots built (fast + compactions).
	Derivations int
	// Fast counts O(delta) derivations.
	Fast int
	// Compactions counts full rebuilds (including Invalidate).
	Compactions int
}

// IndexStats returns the derivation counters. Not synchronized with
// concurrent queries; call from the mutating goroutine.
func (g *Graph) IndexStats() IndexStats { return g.stats }

// derive produces the next snapshot from the pending delta. Called under
// g.mu with g.dirty set.
func (g *Graph) derive() *Index {
	prev := g.idx.Load()
	force := g.force
	g.force = false
	pend := g.pend
	g.pend = pending{}

	edits := len(pend.editOld) > 0 || len(pend.editVertOld) > 0
	if prev != nil && !force && prev.n == len(g.verts) && prev.mEdges == len(g.edges) && !edits {
		return prev
	}
	g.stats.Derivations++
	if force || prev == nil || g.ep == nil {
		// Full rebuild with no carried sums: Invalidate signals untracked
		// in-place property mutations, so previous sums may be stale.
		return g.compact(nil, pending{})
	}
	// The overlay represents appends only: an edit to an element the previous
	// snapshot saw compacts.
	if !edits {
		if ix := g.fastDerive(prev); ix != nil {
			g.stats.Fast++
			return ix
		}
	}
	return g.compact(prev, pend)
}

// compact rebuilds the index from scratch and starts a fresh epoch. When the
// previous snapshot's fingerprint sums are available (and the delta fully
// describes the change — not the Invalidate path), they are carried forward
// in O(delta) so the new snapshot's fingerprint stays cheap.
func (g *Graph) compact(prev *Index, pend pending) *Index {
	g.stats.Compactions++
	ix := buildIndex(g)
	if prev != nil {
		g.carryFingerprint(prev, ix, pend)
	}
	g.ep = &epoch{
		posExtra:  &sync.Map{},
		topoSlots: ix.topo,
		topoIDs:   ix.topoIDs,
	}
	return ix
}

// carryFingerprint derives ix's fingerprint sums from prev's in O(delta):
// the hashes of the vertices and edges appended since prev, plus the
// difference of each recorded edit. It leaves ix's fingerprint lazy when
// prev never computed its sums.
func (g *Graph) carryFingerprint(prev, ix *Index, pend pending) {
	if !prev.fpReady.Load() {
		return
	}
	vs, es := prev.vertSum, prev.edgeSum
	for _, v := range g.verts[prev.n:] {
		vs += vertexHash(v)
	}
	for _, e := range g.edges[prev.mEdges:] {
		es += edgeHash(e)
	}
	for _, i := range sortedKeys(pend.editOld) {
		es += edgeHash(g.edges[i]) - edgeHash(pend.editOld[i])
	}
	for _, s := range sortedKeys(pend.editVertOld) {
		vs += vertexHash(g.verts[s]) - vertexHash(pend.editVertOld[s])
	}
	ix.vertSum, ix.edgeSum = vs, es
	ix.fp = combineFingerprint(ix.n, ix.mEdges, vs, es)
	ix.fpReady.Store(true)
}

// fastDerive attempts the O(delta) snapshot derivation of an append-only
// delta. It returns nil when the delta is not representable incrementally
// (thresholds exceeded, edges into pre-existing vertices, unanchored new
// vertices, or a poisoned topological order), in which case the caller
// compacts.
//
// The topological fast path relies on the anchored-suffix property: when
// every pending new edge points into a new vertex and every new vertex is
// reachable from the previous order's final vertex (the anchor) through
// new edges — or carries a direct anchor edge — the deterministic Kahn order
// of the grown graph is exactly the previous order followed by a suffix of
// the new vertices, which a mini-Kahn over the new subgraph reproduces
// byte-identically (freed batches are all-new and ID-sorted, matching the
// canonical dense sort of a full rebuild). The same property means no
// pre-existing slot gains an in-edge, so only the out-lists of base slots
// need copy-on-write overlays.
func (g *Graph) fastDerive(prev *Index) *Index {
	ep := g.ep
	baseN := prev.baseN
	prevN := int32(prev.n)
	newVerts := g.verts[prevN:]
	newEnds := g.ends[prev.mEdges:]
	k := len(newVerts)
	if prev.topoErr != nil || prevN == 0 {
		return nil
	}
	if prev.n-int(baseN)+k > max(minExtraCap, int(baseN)) {
		return nil
	}

	// Topological feasibility. New vertices are numbered locally by
	// slot-prevN.
	anchor := prev.topo[prevN-1]
	anchorSeed := make([]bool, k)
	newIndeg := make([]int32, k)
	newOut := make([][]int32, k)
	for _, p := range newEnds {
		if p.dst < prevN {
			return nil // edge into a pre-existing vertex: old indegrees change
		}
		dj := p.dst - prevN
		if p.src >= prevN {
			sj := p.src - prevN
			newOut[sj] = append(newOut[sj], dj)
			newIndeg[dj]++
		} else if g.snapSlot(p.src, baseN) == anchor {
			anchorSeed[dj] = true
		}
	}
	anchored := make([]bool, k)
	var stack []int32
	for j, s := range anchorSeed {
		if s {
			anchored[j] = true
			stack = append(stack, int32(j))
		}
	}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, dj := range newOut[j] {
			if !anchored[dj] {
				anchored[dj] = true
				stack = append(stack, dj)
			}
		}
	}
	for j := 0; j < k; j++ {
		if !anchored[j] {
			return nil
		}
	}

	// Base slots gaining out-edges need (re)materialized overlays; an overlay
	// slot's shared adjacency halves absorb appends without one.
	var touchSlots []int32
	needTouch := make(map[int32]bool)
	for _, p := range newEnds {
		if s := g.snapSlot(p.src, baseN); s < baseN && !needTouch[s] {
			needTouch[s] = true
			touchSlots = append(touchSlots, s)
		}
	}
	touchedCount := len(prev.touched)
	totalOv := 0
	for _, ov := range prev.touched {
		totalOv += len(ov.outE)
	}
	for _, s := range touchSlots {
		if prev.touched[s] == nil {
			touchedCount++
			totalOv += prev.OutDegree(s)
		}
	}
	if touchedCount > maxTouchedSlots || totalOv+len(newEnds) > maxTouchedEdges {
		return nil
	}

	// All checks passed — from here on the epoch's shared state is extended.

	// 1. Assign overlay slots to new vertices.
	nTasksAll := prev.nTasksAll
	for _, v := range newVerts {
		slot := baseN + int32(len(ep.extraIDs))
		ep.extraIDs = append(ep.extraIDs, v.ID)
		ep.extraVerts = append(ep.extraVerts, v)
		ep.extraAdj = append(ep.extraAdj, &slotAdj{})
		ep.posExtra.Store(v.ID, slot)
		if v.ID.Kind == TaskVertex {
			nTasksAll++
		}
	}

	// 2. Copy-on-write out-lists for the touched base slots, cloned as the
	// previous snapshot saw them.
	touched := prev.touched
	if len(touchSlots) > 0 {
		touched = make(map[int32]*slotOverlay, len(prev.touched)+len(touchSlots))
		maps.Copy(touched, prev.touched)
		for _, s := range touchSlots {
			outE, outD := prev.Out(s)
			touched[s] = &slotOverlay{outE: slices.Clone(outE), outD: slices.Clone(outD)}
		}
	}

	// 3. Append new edges: touched base slots grow their private out-lists,
	// overlay slots the shared seq-marked halves. Every destination is new.
	for j, p := range newEnds {
		e := g.edges[prev.mEdges+j]
		seq := int32(len(ep.extraEdges))
		ep.extraEdges = append(ep.extraEdges, e)
		s, d := g.snapSlot(p.src, baseN), p.dst
		if s < baseN {
			ov := touched[s]
			ov.outE = append(ov.outE, e)
			ov.outD = append(ov.outD, d)
		} else {
			appendHalf(&ep.extraAdj[s-baseN].out, e, d, seq)
		}
		appendHalf(&ep.extraAdj[d-baseN].in, e, s, seq)
	}

	// 4. Topological order: exact suffix via mini-Kahn over the new subgraph.
	n := prev.n + k
	var (
		topo    []int32
		topoIDs []ID
		topoErr error
	)
	suffix := topoSuffix(newVerts, newIndeg, newOut)
	if len(suffix) < k {
		topoErr = fmt.Errorf("dfl: graph has a cycle (%d of %d vertices ordered)",
			prev.n+len(suffix), n)
	} else {
		for _, j := range suffix {
			ep.topoSlots = append(ep.topoSlots, prevN+j)
			ep.topoIDs = append(ep.topoIDs, newVerts[j].ID)
		}
		topo = ep.topoSlots[:n]
		topoIDs = ep.topoIDs[:n]
	}

	// 5. Aggregates.
	totalVolume := prev.totalVolume
	bestRate := prev.bestRate
	for _, e := range g.edges[prev.mEdges:] {
		totalVolume += e.Props.Volume
		if r := e.Props.Rate(); r > bestRate {
			bestRate = r
		}
	}

	ix := &Index{
		ids:    prev.ids,
		verts:  prev.verts,
		nTasks: prev.nTasks,
		baseN:  baseN,

		edges:    prev.edges,
		outOff:   prev.outOff,
		inOff:    prev.inOff,
		outEdges: prev.outEdges,
		inEdges:  prev.inEdges,
		outDst:   prev.outDst,
		inSrc:    prev.inSrc,

		n:         n,
		nTasksAll: nTasksAll,
		mEdges:    len(g.edges),

		extraIDs:   ep.extraIDs,
		extraVerts: ep.extraVerts,
		extraAdj:   ep.extraAdj,
		extraEdges: ep.extraEdges,
		seqMark:    int32(len(ep.extraEdges)),
		posExtra:   ep.posExtra,
		touched:    touched,

		topo:    topo,
		topoIDs: topoIDs,
		topoErr: topoErr,

		totalVolume: totalVolume,
		bestRate:    bestRate,
		nbrs:        prev.nbrs,
		nbrOff:      prev.nbrOff,
	}
	g.carryFingerprint(prev, ix, pending{})
	return ix
}

// sortedKeys returns the keys of an edit map in ascending order so edit
// replay is deterministic by construction rather than by a commutativity
// argument over map iteration order.
func sortedKeys[V any](m map[int32]V) []int32 {
	keys := make([]int32, 0, len(m))
	for i := range m {
		keys = append(keys, i)
	}
	slices.Sort(keys)
	return keys
}

// topoSuffix runs the deterministic FIFO Kahn over the new-vertex subgraph:
// seeds (zero new-indegree, i.e. freed exactly when the anchor pops) and
// every freed batch are sorted by canonical ID, matching the dense-index
// sort of a full rebuild. indeg is consumed. Returns the pop order as local
// indices; shorter than len(verts) when the new vertices contain a cycle.
func topoSuffix(verts []*Vertex, indeg []int32, out [][]int32) []int32 {
	k := len(verts)
	byID := func(a, b int32) int { return cmpID(verts[a].ID, verts[b].ID) }
	var batch []int32
	for j := 0; j < k; j++ {
		if indeg[j] == 0 {
			batch = append(batch, int32(j))
		}
	}
	slices.SortFunc(batch, byID)
	queue := make([]int32, 0, k)
	queue = append(queue, batch...)
	order := make([]int32, 0, k)
	for head := 0; head < len(queue); head++ {
		j := queue[head]
		order = append(order, j)
		batch = batch[:0]
		for _, dj := range out[j] {
			indeg[dj]--
			if indeg[dj] == 0 {
				batch = append(batch, dj)
			}
		}
		slices.SortFunc(batch, byID)
		queue = append(queue, batch...)
	}
	return order
}
