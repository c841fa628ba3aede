// Package cpa implements the generalized critical path analysis (GCPA) and
// DFL caterpillar trees of §5.1 of the DataLife paper.
//
// A critical path is the longest path in the DFL-DAG under a pluggable
// property weight; by swapping the property (time, volume, footprint, flow
// rate, branch/join instances) the path focuses on different bottleneck
// classes (compute, transfer volume, storage capacity, transfer speed,
// coordination). The caterpillar tree widens the path to distance-one
// vertices; the DFL caterpillar additionally pulls in distance-two producer
// tasks of data leaves so producer-consumer relations are never severed.
//
// All algorithms are linear in vertices and edges, matching the paper's
// efficiency claim.
package cpa

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"datalife/internal/dfl"
)

// EdgeWeight scores an edge for GCPA.
type EdgeWeight func(g *dfl.Graph, e *dfl.Edge) float64

// VertexWeight scores a vertex for GCPA.
type VertexWeight func(g *dfl.Graph, v *dfl.Vertex) float64

// ByVolume weights edges by flow volume (bytes), the paper's default for
// DDMD, Belle II and Montage.
func ByVolume(_ *dfl.Graph, e *dfl.Edge) float64 { return float64(e.Props.Volume) }

// ByFootprint weights edges by unique bytes, surfacing storage-capacity
// bottlenecks.
func ByFootprint(_ *dfl.Graph, e *dfl.Edge) float64 { return float64(e.Props.Footprint) }

// ByLatency weights edges by blocking time, surfacing transfer-speed
// bottlenecks.
func ByLatency(_ *dfl.Graph, e *dfl.Edge) float64 { return e.Props.Latency }

// ByRateDeficit weights edges by volume divided by achieved rate relative to
// the graph's best rate — slow flows carrying much data score high. The best
// rate is the graph's cached aggregate (dfl.Graph.BestRate), computed once
// per graph generation rather than rescanned per edge, which keeps GCPA under
// this weight linear instead of O(E²).
func ByRateDeficit(g *dfl.Graph, e *dfl.Edge) float64 {
	best := g.BestRate()
	r := e.Props.Rate()
	if best == 0 || r == 0 {
		return 0
	}
	return float64(e.Props.Volume) * (best / r)
}

// ByTaskTime weights task vertices by lifetime — classic critical path.
func ByTaskTime(_ *dfl.Graph, v *dfl.Vertex) float64 {
	if v.ID.Kind == dfl.TaskVertex {
		return v.Task.Lifetime
	}
	return 0
}

// ByBranchJoin counts branch/join instances: a data vertex with fan-out of
// two or more (a data branch) or a task vertex with fan-in of two or more (a
// task join) scores one. This is the weighting the paper uses for the 1000
// Genomes critical path (Fig. 2a, Fig. 5).
func ByBranchJoin(g *dfl.Graph, v *dfl.Vertex) float64 {
	switch v.ID.Kind {
	case dfl.DataVertex:
		if g.OutDegree(v.ID) >= 2 {
			return 1
		}
	case dfl.TaskVertex:
		if g.InDegree(v.ID) >= 2 {
			return 1
		}
	}
	return 0
}

// ByTaskFanIn counts task joins only — the paper's weighting for Seismic
// Cross Correlation (Fig. 2e).
func ByTaskFanIn(g *dfl.Graph, v *dfl.Vertex) float64 {
	if v.ID.Kind == dfl.TaskVertex && g.InDegree(v.ID) >= 2 {
		return 1
	}
	return 0
}

// ZeroEdge ignores edges.
func ZeroEdge(*dfl.Graph, *dfl.Edge) float64 { return 0 }

// ZeroVertex ignores vertices.
func ZeroVertex(*dfl.Graph, *dfl.Vertex) float64 { return 0 }

// Path is a critical (or near-critical) path with its accumulated weight.
type Path struct {
	Vertices []dfl.ID
	Weight   float64
}

// Contains reports whether id lies on the path.
func (p Path) Contains(id dfl.ID) bool {
	for _, v := range p.Vertices {
		if v == id {
			return true
		}
	}
	return false
}

// CriticalPath computes the maximum-weight source-to-sink path under the
// given edge and vertex weights via one topological dynamic program — O(V+E).
// Either weight may be nil to ignore that component.
func CriticalPath(g *dfl.Graph, ew EdgeWeight, vw VertexWeight) (Path, error) {
	dp, err := SolvePaths(g, ew, vw)
	if err != nil {
		return Path{}, err
	}
	if len(dp.Sinks) == 0 {
		return Path{}, fmt.Errorf("cpa: empty graph")
	}
	return dp.Path(0), nil
}

// NearCriticalPaths returns up to k maximal paths ranked by weight, one per
// distinct sink — the paper's "critical and near-critical" caterpillar
// candidates. Only the k requested paths are materialized.
func NearCriticalPaths(g *dfl.Graph, ew EdgeWeight, vw VertexWeight, k int) ([]Path, error) {
	dp, err := SolvePaths(g, ew, vw)
	if err != nil || len(dp.Sinks) == 0 {
		return nil, err
	}
	if k > len(dp.Sinks) {
		k = len(dp.Sinks)
	}
	out := make([]Path, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, dp.Path(i))
	}
	return out, nil
}

// PathDP is one solved GCPA dynamic program over a graph snapshot's dense
// slots. The i-th ranked path (NearCriticalPaths' path i) is the predecessor
// chain from Sinks[i] back to a source. Paths of different sinks that meet
// share the whole chain before the meeting slot, so a caller walking every
// ranked path can stop each walk at the first slot an earlier walk reached.
// The slices are shared — do not modify.
type PathDP struct {
	// Index is the snapshot the program was solved on; slots index it.
	Index *dfl.Index
	// Sinks lists the slots without outgoing edges, heaviest path first
	// (ties by ID string).
	Sinks []int32
	// Pred is each slot's predecessor on the heaviest path into it, or -1
	// at a source.
	Pred []int32

	dist []float64
}

// SolvePaths runs the maximum-weight topological DP once — O(V+E) over the
// indexed core, with dense slices instead of per-vertex maps. Either weight
// may be nil to ignore that component. An empty graph has no sinks.
func SolvePaths(g *dfl.Graph, ew EdgeWeight, vw VertexWeight) (*PathDP, error) {
	if ew == nil {
		ew = ZeroEdge
	}
	if vw == nil {
		vw = ZeroVertex
	}
	ix := g.Index()
	order, err := ix.Topo()
	if err != nil {
		return nil, fmt.Errorf("cpa: critical path needs a DAG: %w", err)
	}
	n := ix.Len()
	dist := make([]float64, n)
	pred := make([]int32, n)
	for i := range pred {
		pred[i] = -1
	}
	for _, vi := range order {
		dist[vi] += vw(g, ix.VertexAt(vi)) // own vertex weight; dist held best-in so far
		edges, dsts := ix.Out(vi)
		for k, e := range edges {
			di := dsts[k]
			cand := dist[vi] + ew(g, e)
			if cand > dist[di] || pred[di] < 0 && cand >= dist[di] {
				dist[di] = cand
				pred[di] = vi
			}
		}
	}

	// Rank sinks (no outgoing edges) by accumulated weight.
	var sinks []int32
	for _, vi := range order {
		if ix.OutDegree(vi) == 0 {
			sinks = append(sinks, vi)
		}
	}
	// Ties go to the smaller ID string, "kind:name". Both kind names are four
	// bytes, so comparing the kind name and then the name gives that order
	// without building the strings.
	sort.Slice(sinks, func(i, j int) bool {
		if dist[sinks[i]] != dist[sinks[j]] {
			return dist[sinks[i]] > dist[sinks[j]]
		}
		a, b := ix.IDAt(sinks[i]), ix.IDAt(sinks[j])
		if ka, kb := a.Kind.String(), b.Kind.String(); ka != kb {
			return ka < kb
		}
		return a.Name < b.Name
	})
	return &PathDP{Index: ix, Sinks: sinks, Pred: pred, dist: dist}, nil
}

// Path reconstructs the i-th ranked path by walking predecessors from its
// sink.
func (dp *PathDP) Path(i int) Path {
	s := dp.Sinks[i]
	depth := 1
	for cur := s; dp.Pred[cur] >= 0; cur = dp.Pred[cur] {
		depth++
	}
	vs := make([]dfl.ID, depth)
	for cur, at := s, depth-1; ; cur, at = dp.Pred[cur], at-1 {
		vs[at] = dp.Index.IDAt(cur)
		if dp.Pred[cur] < 0 {
			break
		}
	}
	return Path{Vertices: vs, Weight: dp.dist[s]}
}

// Caterpillar is a DFL caterpillar tree: the spine (critical path), the
// distance-one legs, and — per the paper's DFL extension — distance-two
// producer tasks attached to data-vertex legs, so that every data leaf keeps
// its producer relation.
//
// Membership is a dense bitset over the slots of the snapshot it was built
// on: Scope and Subgraph read it directly, and Contains resolves an ID with
// one Pos search.
type Caterpillar struct {
	Spine Path
	// Legs are the distance-one vertices not on the spine, sorted.
	Legs []dfl.ID
	// Extended are the distance-two producer tasks added by the DFL rule,
	// sorted.
	Extended []dfl.ID

	ix     *dfl.Index
	member []bool              // dense membership, indexed by ix position
	extra  map[dfl.ID]struct{} // spine IDs absent from the graph (rare)
	n      int
}

// Contains reports membership of id in the full caterpillar.
func (c *Caterpillar) Contains(id dfl.ID) bool {
	if c.ix != nil {
		if p := c.ix.Pos(id); p >= 0 {
			return c.member[p]
		}
	}
	_, ok := c.extra[id]
	return ok
}

// Size returns the number of vertices in the caterpillar.
func (c *Caterpillar) Size() int { return c.n }

// Scope returns g's current snapshot, the caterpillar's member slots in it
// (tasks, then data vertices, each in ID order) and the edges with both ends
// in the caterpillar, sorted by (src, dst) with duplicate edges in insertion
// order: g.Tasks(), g.DataFiles() and g.Edges() filtered by Contains, reading
// only the members and their out-edges. A caterpillar built on an older
// snapshot resolves its members on the current one first, since vertices are
// never removed but slots move when a snapshot compacts.
func (c *Caterpillar) Scope(g *dfl.Graph) (ix *dfl.Index, tasks, data []int32, edges []*dfl.Edge) {
	ix = g.Index()
	member := c.member
	if c.ix != ix {
		member = make([]bool, ix.Len())
		for p, in := range c.member {
			if !in {
				continue
			}
			if _, q := g.Locate(c.ix.IDAt(int32(p))); q >= 0 {
				member[q] = true
			}
		}
		for id := range c.extra {
			if _, q := g.Locate(id); q >= 0 {
				member[q] = true
			}
		}
	}
	members := make([]int32, 0, c.n)
	for p, in := range member {
		if in {
			members = append(members, int32(p))
		}
	}
	ix.SortByID(members)
	rank := make([]int32, ix.Len())
	nt := 0
	for i, p := range members {
		rank[p] = int32(i)
		if ix.IDAt(p).Kind == dfl.TaskVertex {
			nt = i + 1
		}
	}
	type ranked struct {
		e        *dfl.Edge
		src, dst int32
	}
	var inner []ranked
	for _, p := range members {
		out, dsts := ix.Out(p)
		for k, d := range dsts {
			if member[d] {
				inner = append(inner, ranked{out[k], rank[p], rank[d]})
			}
		}
	}
	// Out-lists are in insertion order, so a stable sort keeps duplicate
	// edges in it, as the canonical edge order does.
	slices.SortStableFunc(inner, func(a, b ranked) int {
		if a.src != b.src {
			return int(a.src - b.src)
		}
		return int(a.dst - b.dst)
	})
	if len(inner) > 0 {
		edges = make([]*dfl.Edge, len(inner))
		for i, r := range inner {
			edges[i] = r.e
		}
	}
	return ix, members[:nt:nt], members[nt:], edges
}

// DFLCaterpillar builds the DFL caterpillar tree around a critical path:
// every vertex within distance one of the spine, plus — when a distance-one
// vertex is a data vertex — its producer tasks at distance two (§5.1, Fig. 3b:
// a plain caterpillar would sever those producer/consumer relations because
// DFL graphs interleave two vertex types). Construction walks the CSR
// adjacency with dense indices; no per-vertex map operations.
func DFLCaterpillar(g *dfl.Graph, spine Path) *Caterpillar {
	ix := g.Index()
	c := &Caterpillar{Spine: spine, ix: ix, member: make([]bool, ix.Len())}
	add := func(p int32) bool {
		if c.member[p] {
			return false
		}
		c.member[p] = true
		c.n++
		return true
	}
	spinePos := make([]int32, 0, len(spine.Vertices))
	prev := int32(-1)
	for _, id := range spine.Vertices {
		p, _ := pathStep(ix, prev, id)
		prev = p
		if p < 0 {
			// Malformed spine vertex not in the graph: track it separately so
			// Contains/Size still see it.
			if c.extra == nil {
				c.extra = make(map[dfl.ID]struct{})
			}
			if _, dup := c.extra[id]; !dup {
				c.extra[id] = struct{}{}
				c.n++
			}
			continue
		}
		add(p)
		spinePos = append(spinePos, p)
	}
	var legs, ext []int32
	for _, p := range spinePos {
		_, dsts := ix.Out(p)
		for _, d := range dsts {
			if add(d) {
				legs = append(legs, d)
			}
		}
		_, srcs := ix.In(p)
		for _, s := range srcs {
			if add(s) {
				legs = append(legs, s)
			}
		}
	}
	// DFL extension: data-vertex legs pull in their distance-two producers.
	for _, lp := range legs {
		if ix.IDAt(lp).Kind != dfl.DataVertex {
			continue
		}
		_, srcs := ix.In(lp)
		for _, s := range srcs {
			if add(s) {
				ext = append(ext, s)
			}
		}
	}
	// Sort by ID, as Scope does: dense positions follow (kind, name) order
	// only on compacted snapshots, not on overlay slots of fast derivations.
	// Sorting the positions first leaves the ID sort a presorted run to
	// confirm on a compacted snapshot.
	slices.Sort(legs)
	slices.Sort(ext)
	c.Legs = idsAt(ix, legs)
	c.Extended = idsAt(ix, ext)
	sortIDs(c.Legs)
	sortIDs(c.Extended)
	return c
}

// pathStep returns the slot of path vertex id and the edge into it from
// slot prev (-1 for none): the first of prev's out-edges to reach id, which
// is the first inserted, or nil. On a path the critical-path DP built, id is
// an out-neighbour of prev, so a scan of its out-list finds it without a Pos
// search; a hand-built path may skip, repeat or reverse vertices, and then
// Pos resolves it.
func pathStep(ix *dfl.Index, prev int32, id dfl.ID) (int32, *dfl.Edge) {
	if prev >= 0 {
		out, dsts := ix.Out(prev)
		for k, d := range dsts {
			if ix.IDAt(d) == id {
				return d, out[k]
			}
		}
	}
	return ix.Pos(id), nil
}

func idsAt(ix *dfl.Index, pos []int32) []dfl.ID {
	if len(pos) == 0 {
		return nil
	}
	out := make([]dfl.ID, len(pos))
	for i, p := range pos {
		out[i] = ix.IDAt(p)
	}
	return out
}

// Subgraph extracts the caterpillar's induced subgraph from g, preserving
// vertex and edge properties. Useful for focused pattern analysis and
// rendering (Fig. 4).
func (c *Caterpillar) Subgraph(g *dfl.Graph) *dfl.Graph {
	sub := dfl.New()
	ix, tasks, data, edges := c.Scope(g)
	for _, p := range slices.Concat(tasks, data) {
		v := ix.VertexAt(p)
		var nv *dfl.Vertex
		if v.ID.Kind == dfl.TaskVertex {
			nv = sub.AddTask(v.ID.Name)
		} else {
			nv = sub.AddData(v.ID.Name)
		}
		*nv = *v
	}
	for _, e := range edges {
		if _, err := sub.AddEdge(e.Src, e.Dst, e.Kind, e.Props); err != nil {
			panic(err) // directions copied from a valid graph
		}
	}
	return sub
}

// BranchJoinCount reports the number of data branches (fan-out >= 2) and task
// joins (fan-in >= 2) along a path — the statistics quoted for Fig. 5 ("five
// branches and four joins").
func BranchJoinCount(g *dfl.Graph, p Path) (branches, joins int) {
	for _, id := range p.Vertices {
		switch id.Kind {
		case dfl.DataVertex:
			if g.OutDegree(id) >= 2 {
				branches++
			}
		case dfl.TaskVertex:
			if g.InDegree(id) >= 2 {
				joins++
			}
		}
	}
	return
}

// GroupedBranchJoin counts the workflow-level branches and joins the paper
// quotes for Fig. 5: a branch is a data vertex consumed by two or more
// distinct tasks; a join is a task *template* (instances grouped by the given
// function) any of whose instances has in-degree two or more. With the
// default grouping, 1000 Genomes chr1 yields the paper's "five branches and
// four joins" (indiv, merge, freq, mutat).
func GroupedBranchJoin(g *dfl.Graph, group dfl.GroupFunc) (branches, joins int) {
	if group == nil {
		group = dfl.InstanceSuffixGroup
	}
	for _, v := range g.DataFiles() {
		if len(g.Consumers(v.ID)) >= 2 {
			branches++
		}
	}
	joined := make(map[string]struct{})
	for _, v := range g.Tasks() {
		if g.InDegree(v.ID) >= 2 {
			joined[group(dfl.TaskVertex, v.ID.Name)] = struct{}{}
		}
	}
	return branches, len(joined)
}

// IsCaterpillarTree verifies the defining property of a caterpillar: all
// member vertices lie within distance one of the spine, except DFL-extended
// producers which lie within distance two. Used by tests and as a sanity
// check on analysis output.
func (c *Caterpillar) IsCaterpillarTree(g *dfl.Graph) bool {
	onSpine := make(map[dfl.ID]struct{})
	for _, id := range c.Spine.Vertices {
		onSpine[id] = struct{}{}
	}
	distOK := func(id dfl.ID, max int) bool {
		if _, ok := onSpine[id]; ok {
			return true
		}
		// BFS outward from id over undirected adjacency up to max hops.
		frontier := []dfl.ID{id}
		seen := map[dfl.ID]struct{}{id: {}}
		for hop := 0; hop < max; hop++ {
			var next []dfl.ID
			for _, u := range frontier {
				for _, e := range g.Out(u) {
					if _, ok := onSpine[e.Dst]; ok {
						return true
					}
					if _, v := seen[e.Dst]; !v {
						seen[e.Dst] = struct{}{}
						next = append(next, e.Dst)
					}
				}
				for _, e := range g.In(u) {
					if _, ok := onSpine[e.Src]; ok {
						return true
					}
					if _, v := seen[e.Src]; !v {
						seen[e.Src] = struct{}{}
						next = append(next, e.Src)
					}
				}
			}
			frontier = next
		}
		return false
	}
	for _, id := range c.Legs {
		if !distOK(id, 1) {
			return false
		}
	}
	for _, id := range c.Extended {
		if !distOK(id, 2) {
			return false
		}
	}
	return true
}

func sortIDs(ids []dfl.ID) { slices.SortFunc(ids, dfl.ID.Compare) }

// PathEdges returns the edges along a path, in order: for each step the first
// inserted edge between its vertices, as dfl.Graph.FindEdge returns it.
// Missing edges (possible only on malformed paths) are skipped.
func PathEdges(g *dfl.Graph, p Path) []*dfl.Edge {
	ix := g.Index()
	var out []*dfl.Edge
	prev := int32(-1)
	for _, id := range p.Vertices {
		var e *dfl.Edge
		prev, e = pathStep(ix, prev, id)
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// PathVolume sums edge volumes along a path.
func PathVolume(g *dfl.Graph, p Path) uint64 {
	var v uint64
	for _, e := range PathEdges(g, p) {
		v += e.Props.Volume
	}
	return v
}

// Slack computes, for every vertex, the difference between the critical-path
// weight and the weight of the heaviest path through that vertex — zero for
// critical vertices, positive for vertices with scheduling slack. O(V+E).
func Slack(g *dfl.Graph, ew EdgeWeight, vw VertexWeight) (map[dfl.ID]float64, error) {
	if ew == nil {
		ew = ZeroEdge
	}
	if vw == nil {
		vw = ZeroVertex
	}
	ix := g.Index()
	order, err := ix.Topo()
	if err != nil {
		return nil, err
	}
	n := ix.Len()
	fwd := make([]float64, n)
	for _, vi := range order {
		fwd[vi] += vw(g, ix.VertexAt(vi))
		edges, dsts := ix.Out(vi)
		for k, e := range edges {
			if c := fwd[vi] + ew(g, e); c > fwd[dsts[k]] {
				fwd[dsts[k]] = c
			}
		}
	}
	bwd := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		vi := order[i]
		edges, dsts := ix.Out(vi)
		for k, e := range edges {
			if c := bwd[dsts[k]] + ew(g, e); c > bwd[vi] {
				bwd[vi] = c
			}
		}
	}
	var best float64 = math.Inf(-1)
	for _, vi := range order {
		if t := fwd[vi] + bwd[vi]; t > best {
			best = t
		}
	}
	slack := make(map[dfl.ID]float64, n)
	for _, vi := range order {
		slack[ix.IDAt(vi)] = best - (fwd[vi] + bwd[vi])
	}
	return slack, nil
}

// Bottleneck is one vertex ranked by how tightly it sits on the critical
// structure: zero slack means it is on a critical path.
type Bottleneck struct {
	ID    dfl.ID
	Slack float64
}

// Bottlenecks returns the k lowest-slack vertices of the given kind (or all
// kinds when kind is nil) — the attribution view "which tasks/files gate the
// workflow", derived from the same O(V+E) pass as Slack.
func Bottlenecks(g *dfl.Graph, ew EdgeWeight, vw VertexWeight, k int, kind *dfl.VertexKind) ([]Bottleneck, error) {
	slack, err := Slack(g, ew, vw)
	if err != nil {
		return nil, err
	}
	out := make([]Bottleneck, 0, len(slack))
	for id, s := range slack {
		if kind != nil && id.Kind != *kind {
			continue
		}
		out = append(out, Bottleneck{ID: id, Slack: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slack != out[j].Slack {
			return out[i].Slack < out[j].Slack
		}
		if out[i].ID.Kind != out[j].ID.Kind {
			return out[i].ID.Kind < out[j].ID.Kind
		}
		return out[i].ID.Name < out[j].ID.Name
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}
