// Package dfl implements data flow lifecycle graphs (§4 of the DataLife
// paper): property graphs whose vertices are tasks and data files and whose
// directed edges are producer (task→data) and consumer (data→task) flow
// relations, annotated with lifecycle properties derived from the collector's
// constant-space histograms.
//
// The package provides the DFL-DAG built from one execution, lifecycle
// template (DFL-T) aggregation that merges instances of the same task, and
// averaged graphs over multiple runs.
package dfl

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// VertexKind distinguishes the two vertex sets D (data) and T (tasks) of §4.1.
type VertexKind uint8

const (
	// TaskVertex is a workflow task instance.
	TaskVertex VertexKind = iota
	// DataVertex is a data object (a file, in this paper).
	DataVertex
)

func (k VertexKind) String() string {
	if k == TaskVertex {
		return "task"
	}
	return "data"
}

// ID uniquely names a vertex. Task and data namespaces are disjoint.
type ID struct {
	Kind VertexKind
	Name string
}

// TaskID builds the ID of a task vertex.
func TaskID(name string) ID { return ID{TaskVertex, name} }

// DataID builds the ID of a data vertex.
func DataID(name string) ID { return ID{DataVertex, name} }

func (id ID) String() string { return id.Kind.String() + ":" + id.Name }

// Compare orders IDs canonically, tasks before data and names ascending: it
// is negative when id sorts before o, zero when they are equal and positive
// otherwise.
func (id ID) Compare(o ID) int { return cmpID(id, o) }

// TaskProps are lifecycle properties of a task vertex (§4.2).
type TaskProps struct {
	// Lifetime is the task execution time in seconds.
	Lifetime float64
	// ReadOps and WriteOps are total I/O operation counts.
	ReadOps, WriteOps uint64
	// InVolume and OutVolume are total consumed/produced bytes.
	InVolume, OutVolume uint64
	// ReadLatency and WriteLatency are total blocking seconds.
	ReadLatency, WriteLatency float64
	// Instances counts merged task instances (1 in a DFL-DAG, >=1 in a DFL-T).
	Instances int
}

// ReadRate is the ratio of read operations to task time (ops/s).
func (p TaskProps) ReadRate() float64 { return safeDiv(float64(p.ReadOps), p.Lifetime) }

// WriteRate is the ratio of write operations to task time (ops/s).
func (p TaskProps) WriteRate() float64 { return safeDiv(float64(p.WriteOps), p.Lifetime) }

// DataReadRate is the ratio of read volume to task time (B/s).
func (p TaskProps) DataReadRate() float64 { return safeDiv(float64(p.InVolume), p.Lifetime) }

// DataWriteRate is the ratio of write volume to task time (B/s).
func (p TaskProps) DataWriteRate() float64 { return safeDiv(float64(p.OutVolume), p.Lifetime) }

// ReadBlockingFraction is the fraction of task time spent blocked in reads.
func (p TaskProps) ReadBlockingFraction() float64 { return safeDiv(p.ReadLatency, p.Lifetime) }

// WriteBlockingFraction is the fraction of task time spent blocked in writes.
func (p TaskProps) WriteBlockingFraction() float64 { return safeDiv(p.WriteLatency, p.Lifetime) }

// DataProps are lifecycle properties of a data vertex (§4.2).
type DataProps struct {
	// Size is the file size in bytes.
	Size int64
	// Lifetime is the first-open to last-close window in seconds.
	Lifetime float64
	// Instances counts merged data instances (for DFL-T grouping).
	Instances int
}

// FlowProps annotate one producer or consumer edge.
type FlowProps struct {
	// Ops is the number of I/O operations on this flow.
	Ops uint64
	// Volume is total (non-unique) bytes moved.
	Volume uint64
	// Footprint is unique bytes touched.
	Footprint uint64
	// Latency is total blocking time in seconds.
	Latency float64
	// MeanDistance is the mean consecutive access distance in bytes.
	MeanDistance float64
	// ZeroDistFrac is the fraction of consecutive accesses with distance 0.
	ZeroDistFrac float64
	// SmallDistFrac is the fraction with distance below one block.
	SmallDistFrac float64
	// Samples counts merged flows (template / multi-run aggregation).
	Samples int
}

// ReuseFactor is Volume/Footprint; values > 1 indicate data reuse.
func (p FlowProps) ReuseFactor() float64 {
	return safeDiv(float64(p.Volume), float64(p.Footprint))
}

// Rate is the effective flow rate Volume/Latency in B/s.
func (p FlowProps) Rate() float64 { return safeDiv(float64(p.Volume), p.Latency) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Vertex is one node of the DFL graph.
type Vertex struct {
	ID ID
	// Task holds properties when ID.Kind == TaskVertex.
	Task TaskProps
	// Data holds properties when ID.Kind == DataVertex.
	Data DataProps
}

// EdgeKind distinguishes the two flow relations of §3.
type EdgeKind uint8

const (
	// Consumer is data→task flow (reads).
	Consumer EdgeKind = iota
	// Producer is task→data flow (writes).
	Producer
)

func (k EdgeKind) String() string {
	if k == Consumer {
		return "consumer"
	}
	return "producer"
}

// Edge is one directed flow relation.
type Edge struct {
	Src, Dst ID
	Kind     EdgeKind
	Props    FlowProps
}

// Other returns the endpoint that is not id.
func (e *Edge) Other(id ID) ID {
	if e.Src == id {
		return e.Dst
	}
	return e.Src
}

// slotPair names an edge by its endpoint slots: the per-edge record of
// Graph.ends and the key of the first-match lookup table.
type slotPair struct{ src, dst int32 }

// Graph is a DFL graph: a property graph over task and data vertices. A
// DFL-DAG (one vertex per task instance) is acyclic by construction; a DFL-T
// (template) may contain cycles.
//
// Each vertex is interned once into an insertion slot: the slot map is the
// only ID-keyed table, and vertex pointers and per-edge endpoint slots live in
// slot-indexed slices, so adding an edge hashes each endpoint once and
// compaction resolves no ID per edge. The graph keeps no adjacency lists of
// its own: the edge list is its only record of the edges.
//
// Every query is served from an indexed core (see Index) that mutations keep
// current: adjacency (Out, In, the degrees, Producers/Consumers), sorted
// snapshots (Vertices, Edges), TopoSort and the aggregates. AddEdge and new
// vertices accumulate a pending delta that the next query usually derives in
// O(delta) from the previous immutable snapshot, and SetEdgeProps,
// SetTaskProps and SetDataProps record their edits so that the next query
// compacts with the content fingerprint carried forward. The ID-keyed reads
// resolve an ID through the slot map, not by searching the snapshot; loops
// over many vertices should take the snapshot once and read its slots.
//
// Concurrency contract: snapshots obtained from Index() (and every slice the
// query methods return) stay valid and safe to read concurrently, forever —
// including while the graph keeps mutating and deriving newer snapshots.
// Mutation itself is single-writer: do not mutate concurrently with other
// mutations or with calls that may derive a snapshot.
type Graph struct {
	slots map[ID]int32 // vertex ID → insertion slot
	verts []*Vertex    // by slot
	edges []*Edge
	ends  []slotPair // endpoint slots of edges[i]

	// edgeAt maps endpoint slots to the first matching g.edges index
	// (FindEdge semantics). Built lazily on the first FindEdge or
	// SetEdgeProps, then maintained.
	edgeAt map[slotPair]int32

	// order lists the slots in canonical (kind, name) order as of the last
	// compaction, and rank maps each of those slots to its position in it.
	// Compaction merges the slots added since into order, so the first build
	// is the same code with an empty previous order. No snapshot aliases
	// either slice.
	order, rank []int32

	pend  pending
	ep    *epoch
	force bool // full rebuild requested via Invalidate
	stats IndexStats

	mu    sync.Mutex // serializes snapshot derivation
	idx   atomic.Pointer[Index]
	dirty atomic.Bool
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{slots: make(map[ID]int32)}
}

// AddTask ensures a task vertex exists and returns it.
func (g *Graph) AddTask(name string) *Vertex { return g.verts[g.ensure(TaskID(name))] }

// AddData ensures a data vertex exists and returns it.
func (g *Graph) AddData(name string) *Vertex { return g.verts[g.ensure(DataID(name))] }

// ensure interns id, creating its vertex on first sight, and returns its slot.
func (g *Graph) ensure(id ID) int32 {
	if s, ok := g.slots[id]; ok {
		return s
	}
	v := &Vertex{ID: id}
	if id.Kind == TaskVertex {
		v.Task.Instances = 1
	} else {
		v.Data.Instances = 1
	}
	s := int32(len(g.verts))
	g.slots[id] = s
	g.verts = append(g.verts, v)
	g.dirty.Store(true)
	return s
}

// slot returns the slot of id, or -1.
func (g *Graph) slot(id ID) int32 {
	if s, ok := g.slots[id]; ok {
		return s
	}
	return -1
}

// Vertex returns the vertex with the given ID, or nil.
func (g *Graph) Vertex(id ID) *Vertex {
	if s := g.slot(id); s >= 0 {
		return g.verts[s]
	}
	return nil
}

// AddEdge inserts a flow edge after validating that it connects a task and a
// data vertex in the direction implied by its kind (§4.1's edge set E).
func (g *Graph) AddEdge(src, dst ID, kind EdgeKind, props FlowProps) (*Edge, error) {
	switch kind {
	case Consumer:
		if src.Kind != DataVertex || dst.Kind != TaskVertex {
			return nil, fmt.Errorf("dfl: consumer edge must be data→task, got %v→%v", src, dst)
		}
	case Producer:
		if src.Kind != TaskVertex || dst.Kind != DataVertex {
			return nil, fmt.Errorf("dfl: producer edge must be task→data, got %v→%v", src, dst)
		}
	default:
		return nil, fmt.Errorf("dfl: unknown edge kind %d", kind)
	}
	return g.appendEdge(src, dst, kind, props), nil
}

// appendEdge interns the endpoints, appends a new edge to the edge list and
// leaves it for the next derivation to pick up (shared by AddEdge and
// AddUncheckedEdge).
func (g *Graph) appendEdge(src, dst ID, kind EdgeKind, props FlowProps) *Edge {
	s, d := g.ensure(src), g.ensure(dst)
	e := &Edge{Src: src, Dst: dst, Kind: kind, Props: props}
	if e.Props.Samples == 0 {
		e.Props.Samples = 1
	}
	i := int32(len(g.edges))
	g.edges = append(g.edges, e)
	g.ends = append(g.ends, slotPair{s, d})
	if g.edgeAt != nil {
		k := slotPair{s, d}
		if _, ok := g.edgeAt[k]; !ok {
			g.edgeAt[k] = i
		}
	}
	g.dirty.Store(true)
	return e
}

// derived returns the vertex and edge counts of the latest snapshot: slots
// and edge indices at or past them are new in the pending delta.
func (g *Graph) derived() (verts, edges int) {
	if ix := g.idx.Load(); ix != nil {
		return ix.n, ix.mEdges
	}
	return 0, 0
}

// SetEdgeProps replaces the properties of the edge src→dst (the same edge
// FindEdge returns) and records the edit in the index delta: the next query
// compacts, carrying the content fingerprint forward in O(delta). The
// replacement is copy-on-write: previously obtained snapshots keep reading
// the old edge value. Returns false when no such edge exists.
func (g *Graph) SetEdgeProps(src, dst ID, props FlowProps) bool {
	i := g.findEdge(src, dst)
	if i < 0 {
		return false
	}
	old := g.edges[i]
	if props.Samples == 0 {
		props.Samples = 1
	}
	g.edges[i] = &Edge{Src: old.Src, Dst: old.Dst, Kind: old.Kind, Props: props}
	// An edge added since the last derivation surfaces its final pointer
	// everywhere and stays an append; only edges the previous snapshot saw
	// need an edit record.
	if _, seen := g.derived(); int(i) < seen {
		if g.pend.editOld == nil {
			g.pend.editOld = make(map[int32]*Edge)
		}
		if _, ok := g.pend.editOld[i]; !ok {
			g.pend.editOld[i] = old
		}
	}
	g.dirty.Store(true)
	return true
}

// SetTaskProps replaces the properties of the task vertex with the given
// name and records the edit in the index delta (the vertex analogue of
// SetEdgeProps). The replacement is copy-on-write: previously obtained
// snapshots keep reading the old vertex value, including its term in the
// content fingerprint. Returns false when no such task exists.
func (g *Graph) SetTaskProps(name string, props TaskProps) bool {
	if props.Instances == 0 {
		props.Instances = 1
	}
	id := TaskID(name)
	return g.replaceVertex(g.slot(id), &Vertex{ID: id, Task: props})
}

// SetDataProps replaces the properties of the data vertex with the given
// name and records the edit in the index delta (copy-on-write, like
// SetTaskProps). Returns false when no such data vertex exists.
func (g *Graph) SetDataProps(name string, props DataProps) bool {
	if props.Instances == 0 {
		props.Instances = 1
	}
	id := DataID(name)
	return g.replaceVertex(g.slot(id), &Vertex{ID: id, Data: props})
}

// replaceVertex swaps the stored vertex pointer of slot s and records the
// delta: a vertex added since the last derivation surfaces its final value
// through its slot, a pre-existing one records the first-seen old pointer,
// whose hash the compaction's fingerprint carry subtracts.
func (g *Graph) replaceVertex(s int32, nv *Vertex) bool {
	if s < 0 {
		return false
	}
	old := g.verts[s]
	g.verts[s] = nv
	if seen, _ := g.derived(); int(s) < seen {
		if g.pend.editVertOld == nil {
			g.pend.editVertOld = make(map[int32]*Vertex)
		}
		if _, ok := g.pend.editVertOld[s]; !ok {
			g.pend.editVertOld[s] = old
		}
	}
	g.dirty.Store(true)
	return true
}

// findEdge returns the g.edges index of the first-inserted edge src→dst, or
// -1, building the lookup table on first use.
func (g *Graph) findEdge(src, dst ID) int32 {
	s, d := g.slot(src), g.slot(dst)
	if s < 0 || d < 0 {
		return -1
	}
	if g.edgeAt == nil {
		g.edgeAt = make(map[slotPair]int32, len(g.ends))
		for i, k := range g.ends {
			if _, ok := g.edgeAt[k]; !ok {
				g.edgeAt[k] = int32(i)
			}
		}
	}
	if i, ok := g.edgeAt[slotPair{s, d}]; ok {
		return i
	}
	return -1
}

// FindEdge returns the edge src→dst, or nil; of several, the first inserted.
// It reads the endpoint lookup table SetEdgeProps keeps, not a snapshot, so
// it derives none. Its first call builds that table, so like a mutation it
// must not run concurrently with other calls on the graph. Mutating
// properties through the returned pointer bypasses the index delta — prefer
// SetEdgeProps; if you do mutate in place after queries have run, call
// Invalidate.
func (g *Graph) FindEdge(src, dst ID) *Edge {
	if i := g.findEdge(src, dst); i >= 0 {
		return g.edges[i]
	}
	return nil
}

// Locate returns the current snapshot and the slot of id in it, or -1 when
// the graph has no such vertex. It resolves id through the graph's slot map
// rather than searching the snapshot (Index.Pos).
func (g *Graph) Locate(id ID) (*Index, int32) {
	ix := g.Index()
	s := g.slot(id)
	if s < 0 {
		return ix, -1
	}
	return ix, g.snapSlot(s, ix.baseN)
}

// snapSlot maps graph slot s to its slot in a snapshot of the current epoch,
// whose base holds baseN vertices: a base vertex sits at its canonical
// position from the epoch's compaction, an overlay vertex keeps its insertion
// slot, since overlay slots are assigned in insertion order.
func (g *Graph) snapSlot(s, baseN int32) int32 {
	if s < baseN {
		return g.rank[s]
	}
	return s
}

// Out returns the outgoing edges of id, in insertion order.
func (g *Graph) Out(id ID) []*Edge {
	if ix, p := g.Locate(id); p >= 0 {
		es, _ := ix.Out(p)
		return es
	}
	return nil
}

// In returns the incoming edges of id, in insertion order.
func (g *Graph) In(id ID) []*Edge {
	if ix, p := g.Locate(id); p >= 0 {
		es, _ := ix.In(p)
		return es
	}
	return nil
}

// OutDegree and InDegree report adjacency sizes.
func (g *Graph) OutDegree(id ID) int { return len(g.Out(id)) }

// InDegree reports the number of incoming edges.
func (g *Graph) InDegree(id ID) int { return len(g.In(id)) }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.verts) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertices returns all vertices sorted by (kind, name) for determinism. The
// slice is a shared snapshot from the indexed core — do not modify.
func (g *Graph) Vertices() []*Vertex {
	vs, _ := g.Index().canonVerts()
	return vs
}

// Tasks returns all task vertices sorted by name (shared snapshot — do not
// modify).
func (g *Graph) Tasks() []*Vertex {
	vs, nt := g.Index().canonVerts()
	return vs[:nt]
}

// DataFiles returns all data vertices sorted by name (shared snapshot — do
// not modify).
func (g *Graph) DataFiles() []*Vertex {
	vs, nt := g.Index().canonVerts()
	return vs[nt:]
}

// Edges returns all edges sorted by (src, dst) (shared snapshot — do not
// modify).
func (g *Graph) Edges() []*Edge { return g.Index().canonEdges() }

// TopoSort returns the vertices in a topological order, or an error if the
// graph has a cycle (e.g. a DFL-T with merged loop instances). The order is
// the deterministic Kahn order (sorted zero-indegree seeds, sorted freed
// successors), served from the indexed core (shared snapshot — do not
// modify).
func (g *Graph) TopoSort() ([]ID, error) {
	ix := g.Index()
	return ix.topoIDs, ix.topoErr
}

// IsDAG reports whether the graph is acyclic.
func (g *Graph) IsDAG() bool {
	_, err := g.TopoSort()
	return err == nil
}

// UseConcurrency returns the number of distinct consumer tasks of a data
// vertex — the §4.2 "use concurrency" access pattern.
func (g *Graph) UseConcurrency(data ID) int {
	if data.Kind != DataVertex {
		return 0
	}
	return len(g.Consumers(data))
}

// Producers returns the distinct producer tasks of a data vertex, sorted
// (shared snapshot — do not modify); nil for a task or an absent ID.
func (g *Graph) Producers(data ID) []ID {
	if ix, p := g.Locate(data); p >= 0 && data.Kind == DataVertex {
		return ix.Producers(p)
	}
	return nil
}

// Consumers returns the distinct consumer tasks of a data vertex, sorted
// (shared snapshot — do not modify); nil for a task or an absent ID.
func (g *Graph) Consumers(data ID) []ID {
	if ix, p := g.Locate(data); p >= 0 && data.Kind == DataVertex {
		return ix.Consumers(p)
	}
	return nil
}

// TotalVolume sums edge volumes over the whole graph (cached per-graph
// aggregate).
func (g *Graph) TotalVolume() uint64 { return g.Index().totalVolume }

// BestRate returns the maximum effective flow rate (Volume/Latency, B/s)
// over all edges — the cached per-graph aggregate GCPA's rate-deficit weight
// normalizes against. Zero when no edge has a measurable rate.
func (g *Graph) BestRate() float64 { return g.Index().bestRate }
