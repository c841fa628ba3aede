package dfl

import (
	"fmt"
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
	maxEditedEntries = 256
	maxTouchedSlots  = 256
	maxTouchedEdges  = 4096
	minExtraCap      = 64
)

// pending is the property-edit part of the mutation delta accumulated since
// the last snapshot derivation. The structural part needs no record:
// vertices and edges are only ever appended, so the delta's new vertices are
// the slots past the previous snapshot's vertex count and its new edges the
// g.edges indices past its edge count, each read at its final value.
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
	// origPtr records, per edited g.edges index, the edge pointer that is
	// physically stored in the epoch's shared arrays (the compaction-time or
	// first-append pointer), so cumulative edit maps key correctly across
	// repeated edits.
	origPtr map[int32]*Edge
	// origVertPtr is the vertex analogue of origPtr: per edited vertex slot,
	// the pointer physically stored in the epoch's shared verts/extraVerts
	// arrays, keying the cumulative editedVerts map across repeated edits.
	origVertPtr map[int32]*Vertex
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

// slotOverlay is a fully-materialized adjacency override for one slot:
// base slots that gained edges and any slot with an edited edge. Entries are
// immutable once their creating derivation publishes; later derivations
// clone before modifying.
type slotOverlay struct {
	outE []*Edge
	outD []int32
	inE  []*Edge
	inS  []int32
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

	if prev != nil && !force && prev.n == len(g.verts) && prev.mEdges == len(g.edges) &&
		len(pend.editOld) == 0 && len(pend.editVertOld) == 0 {
		return prev
	}
	g.stats.Derivations++
	if force || prev == nil || g.ep == nil {
		// Full rebuild with no carried sums: Invalidate signals untracked
		// in-place property mutations, so previous sums may be stale.
		return g.compact(nil, pending{})
	}
	if ix := g.fastDerive(prev, pend); ix != nil {
		g.stats.Fast++
		return ix
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
	if prev != nil && prev.fpReady.Load() {
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
	g.ep = &epoch{
		posExtra:  &sync.Map{},
		topoSlots: ix.topo,
		topoIDs:   ix.topoIDs,
	}
	return ix
}

// fastDerive attempts the O(delta) snapshot derivation. It returns nil when
// the delta is not representable incrementally (thresholds exceeded, edges
// into pre-existing vertices, unanchored new vertices, a lowered best-rate
// edge, or a poisoned topological order), in which case the caller compacts.
//
// The topological fast path relies on the anchored-suffix property: when
// every pending new edge points into a new vertex and every new vertex is
// reachable from the previous order's final vertex (the anchor) through
// new edges — or carries a direct anchor edge — the deterministic Kahn order
// of the grown graph is exactly the previous order followed by a suffix of
// the new vertices, which a mini-Kahn over the new subgraph reproduces
// byte-identically (freed batches are all-new and ID-sorted, matching the
// canonical dense sort of a full rebuild).
func (g *Graph) fastDerive(prev *Index, pend pending) *Index {
	ep := g.ep
	baseN := prev.baseN
	prevN := int32(prev.n)
	newVerts := g.verts[prevN:]
	newEnds := g.ends[prev.mEdges:]
	k := len(newVerts)
	structural := k > 0 || len(newEnds) > 0
	if structural && prev.topoErr != nil {
		return nil
	}

	if prev.n-int(baseN)+k > max(minExtraCap, int(baseN)) {
		return nil
	}
	if len(prev.edited)+len(pend.editOld)+
		len(prev.editedVerts)+len(pend.editVertOld) > maxEditedEntries {
		return nil
	}

	// Classify edits. Only edges the previous snapshot saw are recorded;
	// edges added this delta already surface their final pointer everywhere.
	type editRec struct {
		i    int32
		o, c *Edge
	}
	var edits []editRec
	for _, i := range sortedKeys(pend.editOld) {
		o := pend.editOld[i]
		c := g.edges[i]
		if c == o {
			continue
		}
		// Lowering an edge that carried the best rate invalidates the cached
		// max; recompute via compaction.
		if or := o.Props.Rate(); or >= prev.bestRate && c.Props.Rate() < or {
			return nil
		}
		edits = append(edits, editRec{i, o, c})
	}

	// Classify vertex property edits. They are non-structural: adjacency,
	// topological order, and edge aggregates reference vertices by slot, so a
	// copy-on-write pointer replacement is the whole change.
	type vertEditRec struct {
		s    int32
		o, c *Vertex
	}
	var vertEdits []vertEditRec
	for _, s := range sortedKeys(pend.editVertOld) {
		o := pend.editVertOld[s]
		c := g.verts[s]
		if c == o {
			continue
		}
		vertEdits = append(vertEdits, vertEditRec{s, o, c})
	}

	// slotOf maps a graph slot to its snapshot slot: base vertices sit at
	// their canonical position from the epoch's compaction, overlay vertices
	// keep their insertion slot (they are appended in insertion order).
	slotOf := func(s int32) int32 {
		if s < baseN {
			return g.rank[s]
		}
		return s
	}

	// Topological feasibility (structural deltas only). New vertices are
	// numbered locally by slot-prevN.
	var (
		newIndeg []int32
		newOut   [][]int32
	)
	if structural {
		if prevN == 0 {
			return nil
		}
		anchor := prev.topo[prevN-1]
		anchorSeed := make([]bool, k)
		newIndeg = make([]int32, k)
		newOut = make([][]int32, k)
		for _, p := range newEnds {
			if p.dst < prevN {
				return nil // edge into a pre-existing vertex: old indegrees change
			}
			dj := p.dst - prevN
			if p.src >= prevN {
				sj := p.src - prevN
				newOut[sj] = append(newOut[sj], dj)
				newIndeg[dj]++
			} else if slotOf(p.src) == anchor {
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
	}

	// Which slots need (re)materialized overlays: every edit endpoint, plus
	// base or already-overlaid slots gaining new edges.
	needTouch := make(map[int32]bool)
	for _, er := range edits {
		p := g.ends[er.i]
		needTouch[slotOf(p.src)] = true
		needTouch[slotOf(p.dst)] = true
	}
	for _, p := range newEnds {
		if s := slotOf(p.src); s < baseN || prev.touched[s] != nil {
			needTouch[s] = true
		}
		// p.dst is always a new vertex here (checked above): its fresh
		// shared adjacency absorbs appends without an overlay.
	}
	touchSlots := make([]int32, 0, len(needTouch))
	for s := range needTouch {
		touchSlots = append(touchSlots, s)
	}
	slices.Sort(touchSlots)
	touchedCount := len(prev.touched)
	totalOv := 0
	for _, ov := range prev.touched {
		totalOv += len(ov.outE) + len(ov.inE)
	}
	for _, s := range touchSlots {
		if prev.touched[s] == nil {
			touchedCount++
			totalOv += prev.OutDegree(s) + prev.InDegree(s)
		}
	}
	if touchedCount > maxTouchedSlots || totalOv+2*len(newEnds) > maxTouchedEdges {
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

	// 2. Copy-on-write overlays for the touched slots.
	touched := prev.touched
	if len(touchSlots) > 0 {
		touched = make(map[int32]*slotOverlay, len(prev.touched)+len(touchSlots))
		for s, ov := range prev.touched {
			touched[s] = ov
		}
		for _, s := range touchSlots {
			touched[s] = materializeOverlay(prev, s, touched[s])
		}
	}

	// 3. Apply edit pointer swaps and extend the cumulative edited map.
	edited := prev.edited
	if len(edits) > 0 {
		edited = make(map[*Edge]*Edge, len(prev.edited)+len(edits))
		for o, c := range prev.edited {
			edited[o] = c
		}
		if ep.origPtr == nil {
			ep.origPtr = make(map[int32]*Edge)
		}
		for _, er := range edits {
			ap, ok := ep.origPtr[er.i]
			if !ok {
				ap = er.o
				ep.origPtr[er.i] = ap
			}
			edited[ap] = er.c
			p := g.ends[er.i]
			swapEdge(touched[slotOf(p.src)].outE, er.o, er.c)
			swapEdge(touched[slotOf(p.dst)].inE, er.o, er.c)
		}
	}

	// 3b. Extend the cumulative vertex-edit map, keyed by the pointer stored
	// in the epoch's shared verts/extraVerts arrays (which never change within
	// an epoch), so repeated edits of the same vertex key consistently.
	editedVerts := prev.editedVerts
	if len(vertEdits) > 0 {
		editedVerts = make(map[*Vertex]*Vertex, len(prev.editedVerts)+len(vertEdits))
		for o, c := range prev.editedVerts {
			editedVerts[o] = c
		}
		if ep.origVertPtr == nil {
			ep.origVertPtr = make(map[int32]*Vertex)
		}
		for _, er := range vertEdits {
			ap, ok := ep.origVertPtr[er.s]
			if !ok {
				ap = er.o
				ep.origVertPtr[er.s] = ap
			}
			editedVerts[ap] = er.c
		}
	}

	// 4. Append new edges: overlaid slots grow their private lists, fresh
	// overlay slots grow the shared seq-marked halves.
	for j, p := range newEnds {
		e := g.edges[prev.mEdges+j]
		seq := int32(len(ep.extraEdges))
		ep.extraEdges = append(ep.extraEdges, e)
		s, d := slotOf(p.src), slotOf(p.dst)
		if ov := touched[s]; ov != nil {
			ov.outE = append(ov.outE, e)
			ov.outD = append(ov.outD, d)
		} else {
			appendHalf(&ep.extraAdj[s-baseN].out, e, d, seq)
		}
		if ov := touched[d]; ov != nil {
			ov.inE = append(ov.inE, e)
			ov.inS = append(ov.inS, s)
		} else {
			appendHalf(&ep.extraAdj[d-baseN].in, e, s, seq)
		}
	}

	// 5. Topological order: exact suffix via mini-Kahn over the new subgraph.
	n := prev.n + k
	var (
		topo    []int32
		topoIDs []ID
		topoErr error
	)
	if !structural {
		topo, topoIDs, topoErr = prev.topo, prev.topoIDs, prev.topoErr
	} else {
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
	}

	// 6. Aggregates.
	totalVolume := prev.totalVolume
	bestRate := prev.bestRate
	for _, e := range g.edges[prev.mEdges:] {
		totalVolume += e.Props.Volume
		if r := e.Props.Rate(); r > bestRate {
			bestRate = r
		}
	}
	for _, er := range edits {
		totalVolume += er.c.Props.Volume - er.o.Props.Volume
		if r := er.c.Props.Rate(); r > bestRate {
			bestRate = r
		}
	}

	ix := &Index{
		ids:    prev.ids,
		pos:    prev.pos,
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

		extraIDs:    ep.extraIDs,
		extraVerts:  ep.extraVerts,
		extraAdj:    ep.extraAdj,
		extraEdges:  ep.extraEdges,
		seqMark:     int32(len(ep.extraEdges)),
		posExtra:    ep.posExtra,
		touched:     touched,
		edited:      edited,
		editedVerts: editedVerts,

		topo:    topo,
		topoIDs: topoIDs,
		topoErr: topoErr,

		totalVolume: totalVolume,
		bestRate:    bestRate,
		nbrs:        prev.nbrs,
		nbrOff:      prev.nbrOff,
	}

	// 7. Fingerprint sums carried in O(delta) when the previous snapshot
	// computed them; otherwise left lazy.
	if prev.fpReady.Load() {
		vs, es := prev.vertSum, prev.edgeSum
		for _, v := range newVerts {
			vs += vertexHash(v)
		}
		for _, e := range g.edges[prev.mEdges:] {
			es += edgeHash(e)
		}
		for _, er := range edits {
			es += edgeHash(er.c) - edgeHash(er.o)
		}
		for _, er := range vertEdits {
			vs += vertexHash(er.c) - vertexHash(er.o)
		}
		ix.vertSum, ix.edgeSum = vs, es
		ix.fp = combineFingerprint(n, ix.mEdges, vs, es)
		ix.fpReady.Store(true)
	}
	return ix
}

// materializeOverlay builds the private adjacency override for slot s as the
// previous snapshot saw it: cloning an existing overlay, or expanding the
// base CSR span / shared half prefix with cumulative edits applied.
func materializeOverlay(prev *Index, s int32, existing *slotOverlay) *slotOverlay {
	ov := &slotOverlay{}
	if existing != nil {
		ov.outE = slices.Clone(existing.outE)
		ov.outD = slices.Clone(existing.outD)
		ov.inE = slices.Clone(existing.inE)
		ov.inS = slices.Clone(existing.inS)
		return ov
	}
	repl := func(es []*Edge) []*Edge {
		out := make([]*Edge, len(es))
		for i, e := range es {
			if c, ok := prev.edited[e]; ok {
				e = c
			}
			out[i] = e
		}
		return out
	}
	if s < prev.baseN {
		lo, hi := prev.outOff[s], prev.outOff[s+1]
		ov.outE = repl(prev.outEdges[lo:hi])
		ov.outD = slices.Clone(prev.outDst[lo:hi])
		lo, hi = prev.inOff[s], prev.inOff[s+1]
		ov.inE = repl(prev.inEdges[lo:hi])
		ov.inS = slices.Clone(prev.inSrc[lo:hi])
		return ov
	}
	a := prev.extraAdj[s-prev.baseN]
	if h := a.out.Load(); h != nil {
		kv := h.visible(prev.seqMark)
		ov.outE = repl(h.edges[:kv])
		ov.outD = slices.Clone(h.peers[:kv])
	}
	if h := a.in.Load(); h != nil {
		kv := h.visible(prev.seqMark)
		ov.inE = repl(h.edges[:kv])
		ov.inS = slices.Clone(h.peers[:kv])
	}
	return ov
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

func swapEdge(es []*Edge, o, c *Edge) {
	for i, e := range es {
		if e == o {
			es[i] = c
		}
	}
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
