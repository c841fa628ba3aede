package dfl

import (
	"fmt"
	"strings"

	"datalife/internal/stats"
)

// GroupFunc maps an instance vertex name to its template name. Returning the
// input unchanged keeps the vertex un-aggregated.
type GroupFunc func(kind VertexKind, name string) string

// InstanceSuffixGroup is the default grouping rule: task names of the form
// "name#i" (the convention used by the workflow generators for parallel
// instances of the same task, e.g. control-loop iterations) collapse to
// "name". Data names are untouched.
func InstanceSuffixGroup(kind VertexKind, name string) string {
	if kind != TaskVertex {
		return name
	}
	if i := strings.LastIndexByte(name, '#'); i > 0 {
		return name[:i]
	}
	return name
}

// Template aggregates instances of the same vertex to form a lifecycle
// template, DFL-T (§4.1). Vertex properties are summed (volumes, ops,
// latency) or averaged (lifetimes) over instances; parallel edges between
// the same template endpoints are merged by summing volumes and averaging
// pattern statistics. The result may contain cycles (e.g. control loops).
func Template(g *Graph, group GroupFunc) *Graph {
	if group == nil {
		group = InstanceSuffixGroup
	}
	t := New()

	// Map each instance ID to its template ID and fold vertex properties.
	rename := make(map[ID]ID, g.NumVertices())
	counts := make(map[ID]int)
	for _, v := range g.Vertices() {
		tid := ID{v.ID.Kind, group(v.ID.Kind, v.ID.Name)}
		rename[v.ID] = tid
		tv := t.verts[t.ensure(tid)]
		counts[tid]++
		n := counts[tid]
		switch v.ID.Kind {
		case TaskVertex:
			tv.Task.Instances = n
			// Running average for lifetime; sums for volumes and ops.
			tv.Task.Lifetime += (v.Task.Lifetime - tv.Task.Lifetime) / float64(n)
			tv.Task.ReadOps += v.Task.ReadOps
			tv.Task.WriteOps += v.Task.WriteOps
			tv.Task.InVolume += v.Task.InVolume
			tv.Task.OutVolume += v.Task.OutVolume
			tv.Task.ReadLatency += v.Task.ReadLatency
			tv.Task.WriteLatency += v.Task.WriteLatency
		case DataVertex:
			tv.Data.Instances = n
			tv.Data.Lifetime += (v.Data.Lifetime - tv.Data.Lifetime) / float64(n)
			if v.Data.Size > tv.Data.Size {
				tv.Data.Size = v.Data.Size
			}
		}
	}

	// Merge edges between the same template endpoints.
	for _, e := range g.Edges() {
		src, dst := rename[e.Src], rename[e.Dst]
		if cur := t.FindEdge(src, dst); cur != nil {
			t.SetEdgeProps(src, dst, mergeFlowProps(cur.Props, e.Props))
			continue
		}
		if _, err := t.AddEdge(src, dst, e.Kind, e.Props); err != nil {
			// Grouping cannot change vertex kinds, so directions stay valid.
			panic(err)
		}
	}
	return t
}

// mergeFlowProps combines two flows: counters add, pattern statistics average
// weighted by sample count.
func mergeFlowProps(a, b FlowProps) FlowProps {
	wa, wb := float64(a.Samples), float64(b.Samples)
	if wa == 0 {
		wa = 1
	}
	if wb == 0 {
		wb = 1
	}
	w := wa + wb
	return FlowProps{
		Ops:           a.Ops + b.Ops,
		Volume:        a.Volume + b.Volume,
		Footprint:     a.Footprint + b.Footprint,
		Latency:       a.Latency + b.Latency,
		MeanDistance:  (a.MeanDistance*wa + b.MeanDistance*wb) / w,
		ZeroDistFrac:  (a.ZeroDistFrac*wa + b.ZeroDistFrac*wb) / w,
		SmallDistFrac: (a.SmallDistFrac*wa + b.SmallDistFrac*wb) / w,
		Samples:       a.Samples + b.Samples,
	}
}

// AverageRuns generalizes a DFL graph over several executions (§2): all runs
// must share the same structure (same vertex and edge sets); numeric
// properties are averaged across runs. It returns an error on structural
// mismatch, which per §2 indicates the executions did not use the same input.
func AverageRuns(runs []*Graph) (*Graph, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("dfl: no runs to average")
	}
	base := runs[0]
	avg := New()
	for _, v := range base.Vertices() {
		nv := avg.verts[avg.ensure(v.ID)]
		*nv = *v
	}
	for _, e := range base.Edges() {
		if _, err := avg.AddEdge(e.Src, e.Dst, e.Kind, e.Props); err != nil {
			return nil, err
		}
	}
	for ri, run := range runs[1:] {
		if run.NumVertices() != base.NumVertices() || run.NumEdges() != base.NumEdges() {
			return nil, fmt.Errorf("dfl: run %d structure differs (%dV/%dE vs %dV/%dE)",
				ri+1, run.NumVertices(), run.NumEdges(), base.NumVertices(), base.NumEdges())
		}
		for _, v := range run.Vertices() {
			av := avg.Vertex(v.ID)
			if av == nil {
				return nil, fmt.Errorf("dfl: run %d has extra vertex %v", ri+1, v.ID)
			}
			n := float64(ri + 2) // runs folded so far including this one
			switch v.ID.Kind {
			case TaskVertex:
				av.Task.Lifetime += (v.Task.Lifetime - av.Task.Lifetime) / n
				av.Task.ReadLatency += (v.Task.ReadLatency - av.Task.ReadLatency) / n
				av.Task.WriteLatency += (v.Task.WriteLatency - av.Task.WriteLatency) / n
				av.Task.ReadOps = avgU64(av.Task.ReadOps, v.Task.ReadOps, n)
				av.Task.WriteOps = avgU64(av.Task.WriteOps, v.Task.WriteOps, n)
				av.Task.InVolume = avgU64(av.Task.InVolume, v.Task.InVolume, n)
				av.Task.OutVolume = avgU64(av.Task.OutVolume, v.Task.OutVolume, n)
			case DataVertex:
				av.Data.Lifetime += (v.Data.Lifetime - av.Data.Lifetime) / n
				if v.Data.Size > av.Data.Size {
					av.Data.Size = v.Data.Size
				}
			}
		}
		for _, e := range run.Edges() {
			ae := avg.FindEdge(e.Src, e.Dst)
			if ae == nil {
				return nil, fmt.Errorf("dfl: run %d has extra edge %v→%v", ri+1, e.Src, e.Dst)
			}
			n := float64(ri + 2)
			p := ae.Props
			p.Ops = avgU64(p.Ops, e.Props.Ops, n)
			p.Volume = avgU64(p.Volume, e.Props.Volume, n)
			p.Footprint = avgU64(p.Footprint, e.Props.Footprint, n)
			p.Latency += (e.Props.Latency - p.Latency) / n
			p.MeanDistance += (e.Props.MeanDistance - p.MeanDistance) / n
			p.ZeroDistFrac += (e.Props.ZeroDistFrac - p.ZeroDistFrac) / n
			p.SmallDistFrac += (e.Props.SmallDistFrac - p.SmallDistFrac) / n
			p.Samples++
			avg.SetEdgeProps(e.Src, e.Dst, p)
		}
	}
	return avg, nil
}

// avgU64 folds sample x into a running average cur over n samples.
func avgU64(cur, x uint64, n float64) uint64 {
	return uint64(float64(cur) + (float64(x)-float64(cur))/n)
}

// EdgeMetric extracts a numeric property from an edge for distribution
// collection.
type EdgeMetric func(*Edge) float64

// EdgeKey names an edge across runs.
type EdgeKey struct {
	Src, Dst ID
}

// EdgeDistributions collects, for each edge present in the runs, the sample
// distribution of a property across runs — the paper's alternative to
// averaging when generalizing graphs over several executions ("property
// values are either averaged or represented as histograms", §2). Runs may
// differ structurally; an edge's distribution holds one sample per run that
// contains it.
func EdgeDistributions(runs []*Graph, metric EdgeMetric) map[EdgeKey]stats.Summary {
	if metric == nil {
		metric = func(e *Edge) float64 { return float64(e.Props.Volume) }
	}
	samples := make(map[EdgeKey][]float64)
	for _, g := range runs {
		for _, e := range g.Edges() {
			k := EdgeKey{e.Src, e.Dst}
			samples[k] = append(samples[k], metric(e))
		}
	}
	out := make(map[EdgeKey]stats.Summary, len(samples))
	for k, xs := range samples {
		out[k] = stats.Summarize(xs)
	}
	return out
}
