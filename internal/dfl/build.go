package dfl

import "datalife/internal/iotrace"

// Build constructs a DFL-DAG from collector measurements (§4.1): since each
// histogram captures one or two flow relations, the graph is built simply by
// connecting all edges. Each task instance is a distinct vertex, so the
// result is acyclic.
func Build(col *iotrace.Collector) *Graph {
	g := New()
	for _, ti := range col.Tasks() {
		g.AddTask(ti.Name).Task.Lifetime = ti.Lifetime()
	}
	for _, fl := range col.Flows() {
		addFlow(g, iotrace.Summarize(fl))
	}
	return g
}

// BuildSaved reconstructs a DFL-DAG from a persisted measurement database
// (iotrace.SaveJSON/LoadJSON) — the analyze-later path the paper's artifact
// uses with its stored I/O state. It folds the same records Build does, so
// both yield the same graph for the same measurements.
func BuildSaved(st *iotrace.SavedState) *Graph {
	g := New()
	for i := range st.Tasks {
		g.AddTask(st.Tasks[i].Name).Task.Lifetime = st.Tasks[i].Lifetime()
	}
	for _, sf := range st.Flows {
		addFlow(g, sf)
	}
	return g
}

// addFlow converts one task-file record into its producer and/or consumer
// edges and folds its aggregates into the endpoint vertices.
func addFlow(g *Graph, f iotrace.SavedFlow) {
	task := g.AddTask(f.Task)
	data := g.AddData(f.File)
	task.Task.AddFlow(f)
	data.Data.AddFlow(f)
	read, write := FlowEdges(f)
	if read.Ops > 0 {
		mustEdge(g, data.ID, task.ID, Consumer, read)
	}
	if write.Ops > 0 {
		mustEdge(g, task.ID, data.ID, Producer, write)
	}
}

// FlowEdges derives the properties of the consumer (data → task) and
// producer (task → data) edges one task-file flow contributes. A direction
// without operations has Ops == 0 and contributes no edge.
func FlowEdges(f iotrace.SavedFlow) (read, write FlowProps) {
	if f.ReadOps > 0 {
		read = FlowProps{
			Ops:           f.ReadOps,
			Volume:        f.ReadBytes,
			Footprint:     f.ReadFootprint,
			Latency:       f.ReadTime,
			MeanDistance:  f.MeanDistance,
			ZeroDistFrac:  f.ZeroDistFrac,
			SmallDistFrac: f.SmallDistFrac,
		}
	}
	if f.WriteOps > 0 {
		write = FlowProps{
			Ops:           f.WriteOps,
			Volume:        f.WriteBytes,
			Footprint:     f.WriteFootprint,
			Latency:       f.WriteTime,
			MeanDistance:  f.MeanDistance,
			ZeroDistFrac:  f.ZeroDistFrac,
			SmallDistFrac: f.SmallDistFrac,
		}
	}
	return read, write
}

// AddFlow accumulates one of the task's flows into its I/O totals. Float
// sums depend on order, so callers fold a task's flows sorted by file.
func (p *TaskProps) AddFlow(f iotrace.SavedFlow) {
	p.ReadOps += f.ReadOps
	p.WriteOps += f.WriteOps
	p.InVolume += f.ReadBytes
	p.OutVolume += f.WriteBytes
	p.ReadLatency += f.ReadTime
	p.WriteLatency += f.WriteTime
}

// AddFlow folds one flow touching the file into its size and lifetime, the
// maxima over all such flows.
func (p *DataProps) AddFlow(f iotrace.SavedFlow) {
	if f.FileSize > p.Size {
		p.Size = f.FileSize
	}
	if f.FileLifetime > p.Lifetime {
		p.Lifetime = f.FileLifetime
	}
}

// mustEdge adds an edge whose direction is known correct by construction.
func mustEdge(g *Graph, src, dst ID, kind EdgeKind, p FlowProps) {
	if _, err := g.AddEdge(src, dst, kind, p); err != nil {
		panic(err) // unreachable: directions are fixed above
	}
}
