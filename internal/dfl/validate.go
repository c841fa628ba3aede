package dfl

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Severity classifies a Violation: errors make a graph unusable for
// coordination decisions, warnings flag suspicious but possibly intentional
// structure (e.g. final outputs are legitimately unconsumed).
type Severity uint8

const (
	// Warning marks advisory findings.
	Warning Severity = iota
	// Error marks invariant breaches.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Violation is one breach of the §4.1 DFL graph invariants found by
// Validate.
type Violation struct {
	// Rule names the invariant: bipartite, cycle, ordering, conservation,
	// orphan, unconsumed, or props.
	Rule string
	// Subject names the vertex or edge the violation anchors to.
	Subject string
	// Message explains the breach.
	Message string
	// Severity is Error for invariant breaches, Warning for advisories.
	Severity Severity
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", v.Severity, v.Rule, v.Subject, v.Message)
}

// Errors filters a violation list down to Severity == Error entries.
func Errors(vs []Violation) []Violation {
	var out []Violation
	for _, v := range vs {
		if v.Severity == Error {
			out = append(out, v)
		}
	}
	return out
}

// Validate checks the graph against the structural invariants of a DFL-DAG
// (§4.1): bipartite edge discipline (producer edges task→data, consumer
// edges data→task), acyclicity, producer-precedes-consumer ordering (data
// with consumers must be produced or be an initial input), flow conservation
// (unique bytes consumed cannot exceed bytes produced plus the initial
// size), orphan and unconsumed data vertices, and property sanity. Edges
// added through AddEdge already satisfy the bipartite rule; Validate
// re-checks it so deserialized or hand-built graphs (AddUncheckedEdge) get
// the same guarantee.
//
// Templates (DFL-T) may legitimately contain cycles from merged loop
// instances; use Errors plus a rule filter, or validate the instance DAG
// before aggregation.
func (g *Graph) Validate() []Violation {
	var vs []Violation

	// Bipartite edge discipline.
	for _, e := range g.Edges() {
		switch e.Kind {
		case Consumer:
			if e.Src.Kind != DataVertex || e.Dst.Kind != TaskVertex {
				vs = append(vs, Violation{
					Rule: "bipartite", Subject: edgeName(e), Severity: Error,
					Message: fmt.Sprintf("consumer edge must be data→task, got %s→%s", e.Src.Kind, e.Dst.Kind),
				})
			}
		case Producer:
			if e.Src.Kind != TaskVertex || e.Dst.Kind != DataVertex {
				vs = append(vs, Violation{
					Rule: "bipartite", Subject: edgeName(e), Severity: Error,
					Message: fmt.Sprintf("producer edge must be task→data, got %s→%s", e.Src.Kind, e.Dst.Kind),
				})
			}
		default:
			vs = append(vs, Violation{
				Rule: "bipartite", Subject: edgeName(e), Severity: Error,
				Message: fmt.Sprintf("unknown edge kind %d", e.Kind),
			})
		}
	}

	// Acyclicity: name the vertices stuck on a cycle for the message.
	if _, err := g.TopoSort(); err != nil {
		vs = append(vs, Violation{
			Rule: "cycle", Subject: g.cycleSubject(), Severity: Error,
			Message: "graph has a cycle; a DFL-DAG must be acyclic",
		})
	}

	// Per-data-vertex flow checks.
	for _, d := range g.DataFiles() {
		var produced uint64
		in, out := g.In(d.ID), g.Out(d.ID)
		for _, e := range in {
			if e.Kind == Producer {
				produced += e.Props.Volume
			}
		}
		nIn, nOut := len(in), len(out)
		initial := d.Data.Size // unproduced data is an initial input of this size
		switch {
		case nIn == 0 && nOut == 0:
			vs = append(vs, Violation{
				Rule: "orphan", Subject: d.ID.String(), Severity: Warning,
				Message: "data vertex has no producers and no consumers",
			})
		case nIn == 0 && nOut > 0 && initial <= 0:
			vs = append(vs, Violation{
				Rule: "ordering", Subject: d.ID.String(), Severity: Error,
				Message: "data is consumed but never produced and has no initial size",
			})
		case nIn > 0 && nOut == 0:
			vs = append(vs, Violation{
				Rule: "unconsumed", Subject: d.ID.String(), Severity: Warning,
				Message: "data is produced but never consumed (dead output unless it is a final result)",
			})
		}
		// Conservation: unique bytes any consumer touches are bounded by
		// what exists — the final size when known, else the produced bytes.
		capacity := uint64(0)
		if initial > 0 {
			capacity = uint64(initial)
		}
		if capacity == 0 {
			capacity = produced
		}
		for _, e := range out {
			if e.Kind != Consumer {
				continue
			}
			if e.Props.Footprint > e.Props.Volume {
				vs = append(vs, Violation{
					Rule: "conservation", Subject: edgeName(e), Severity: Error,
					Message: fmt.Sprintf("footprint %d exceeds volume %d (unique bytes cannot exceed total bytes)",
						e.Props.Footprint, e.Props.Volume),
				})
			}
			// Templates sum footprints over merged instances (Samples
			// counts them), so the invariant holds per sample.
			samples := e.Props.Samples
			if samples < 1 {
				samples = 1
			}
			if mean := float64(e.Props.Footprint) / float64(samples); capacity > 0 && mean > float64(capacity) {
				vs = append(vs, Violation{
					Rule: "conservation", Subject: edgeName(e), Severity: Error,
					Message: fmt.Sprintf("consumed footprint %d over %d flow(s) exceeds produced+initial bytes %d",
						e.Props.Footprint, samples, capacity),
				})
			}
		}
	}

	// Property sanity.
	for _, v := range g.Vertices() {
		switch v.ID.Kind {
		case TaskVertex:
			if v.Task.Instances < 1 {
				vs = append(vs, Violation{Rule: "props", Subject: v.ID.String(), Severity: Error,
					Message: fmt.Sprintf("task Instances must be >= 1, got %d", v.Task.Instances)})
			}
			if bad(v.Task.Lifetime) || v.Task.Lifetime < 0 {
				vs = append(vs, Violation{Rule: "props", Subject: v.ID.String(), Severity: Error,
					Message: fmt.Sprintf("task lifetime %v is negative or not finite", v.Task.Lifetime)})
			}
		case DataVertex:
			if v.Data.Instances < 1 {
				vs = append(vs, Violation{Rule: "props", Subject: v.ID.String(), Severity: Error,
					Message: fmt.Sprintf("data Instances must be >= 1, got %d", v.Data.Instances)})
			}
			if v.Data.Size < 0 {
				vs = append(vs, Violation{Rule: "props", Subject: v.ID.String(), Severity: Error,
					Message: fmt.Sprintf("data size %d is negative", v.Data.Size)})
			}
		}
	}
	for _, e := range g.Edges() {
		if e.Props.Samples < 1 {
			vs = append(vs, Violation{Rule: "props", Subject: edgeName(e), Severity: Error,
				Message: fmt.Sprintf("edge Samples must be >= 1, got %d", e.Props.Samples)})
		}
		if bad(e.Props.Latency) || e.Props.Latency < 0 {
			vs = append(vs, Violation{Rule: "props", Subject: edgeName(e), Severity: Error,
				Message: fmt.Sprintf("edge latency %v is negative or not finite", e.Props.Latency)})
		}
	}

	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].Severity != vs[j].Severity {
			return vs[i].Severity > vs[j].Severity
		}
		if vs[i].Rule != vs[j].Rule {
			return vs[i].Rule < vs[j].Rule
		}
		return vs[i].Subject < vs[j].Subject
	})
	return vs
}

// cycleSubject names the vertices left unordered by Kahn's algorithm — a
// superset of the cycle members, small enough to point at the problem.
func (g *Graph) cycleSubject() string {
	ix := g.Index()
	indeg := make([]int, ix.Len())
	var queue []int32
	for p := range indeg {
		indeg[p] = ix.InDegree(int32(p))
		if indeg[p] == 0 {
			queue = append(queue, int32(p))
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		_, dsts := ix.Out(p)
		for _, d := range dsts {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	var stuck []string
	for p, d := range indeg {
		if d > 0 {
			stuck = append(stuck, ix.IDAt(int32(p)).String())
		}
	}
	sort.Strings(stuck)
	if len(stuck) > 6 {
		stuck = append(stuck[:6], fmt.Sprintf("… %d more", len(stuck)-6))
	}
	return strings.Join(stuck, ", ")
}

// AddUncheckedEdge inserts an edge without the AddEdge direction checks. It
// exists for deserializers and for testing Validate against malformed
// graphs; regular construction must use AddEdge.
func (g *Graph) AddUncheckedEdge(src, dst ID, kind EdgeKind, props FlowProps) *Edge {
	return g.appendEdge(src, dst, kind, props)
}

func edgeName(e *Edge) string { return e.Src.String() + "→" + e.Dst.String() }

func bad(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
