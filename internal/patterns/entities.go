// Package patterns implements the DFL entity analysis of §4.3 and the
// automated opportunity identification of §5 / Table 1 of the DataLife paper.
//
// Entities are graph constructs and relations between them: vertices, data
// and task relations (a vertex plus its incident edges), simple producer and
// consumer relations, and composite producer-consumer relations. Entity
// projection extracts one entity type from the DFL graph, and ranking orders
// the projection by a property value, focusing an analyst on the lifecycle
// entities most likely to benefit from remediation.
//
// All detectors run in time linear in vertices and edges, matching the
// paper's complexity claim — they use only a vertex and its incident edges,
// never subgraph isomorphism.
package patterns

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"datalife/internal/dfl"
)

// RelationClass categorizes a vertex by incident-edge counts (§5.2, §5.3).
type RelationClass uint8

const (
	// Regular has one input and one output.
	Regular RelationClass = iota
	// FanIn has many inputs and at most one output.
	FanIn
	// FanOut has at most one input and many outputs.
	FanOut
	// FanInOut has many inputs and many outputs.
	FanInOut
	// Source has no inputs.
	Source
	// Sink has no outputs.
	Sink
)

var relationClassNames = [...]string{"regular", "fan-in", "fan-out", "fan-in/out", "source", "sink"}

func (c RelationClass) String() string {
	if int(c) < len(relationClassNames) {
		return relationClassNames[c]
	}
	return fmt.Sprintf("class(%d)", c)
}

// Classify returns the relation class of any vertex from its degrees.
func Classify(g *dfl.Graph, id dfl.ID) RelationClass {
	return classify(g.InDegree(id), g.OutDegree(id))
}

// classify maps in- and out-degree to a relation class.
func classify(in, out int) RelationClass {
	switch {
	case in == 0 && out <= 1:
		return Source
	case out == 0 && in <= 1:
		return Sink
	case in >= 2 && out >= 2:
		return FanInOut
	case in >= 2:
		return FanIn
	case out >= 2:
		return FanOut
	default:
		return Regular
	}
}

// EntityKind selects an entity type for projection (§4.3).
type EntityKind uint8

const (
	// DataEntity projects data vertices.
	DataEntity EntityKind = iota
	// TaskEntity projects task vertices.
	TaskEntity
	// ProducerRelation projects task→data edges.
	ProducerRelation
	// ConsumerRelation projects data→task edges.
	ConsumerRelation
	// ProducerConsumerRelation projects composite producer→data→consumer
	// triples.
	ProducerConsumerRelation
)

var entityKindNames = [...]string{"data", "task", "producer", "consumer", "producer-consumer"}

func (k EntityKind) String() string {
	if int(k) < len(entityKindNames) {
		return entityKindNames[k]
	}
	return fmt.Sprintf("entity(%d)", k)
}

// Entity is one projected entity with the property value used for ranking.
type Entity struct {
	Kind EntityKind
	// Producer, Data and Consumer are filled as applicable to the kind.
	Producer, Data, Consumer dfl.ID
	// Value is the ranking property (meaning depends on the metric used).
	Value float64
	// Detail is a short human-readable description.
	Detail string
}

func (e Entity) String() string { return string(e.appendText(nil)) }

// EdgeMetric scores an edge for projection/ranking.
type EdgeMetric func(e *dfl.Edge) float64

// VolumeMetric ranks by flow volume.
func VolumeMetric(e *dfl.Edge) float64 { return float64(e.Props.Volume) }

// FootprintMetric ranks by unique bytes.
func FootprintMetric(e *dfl.Edge) float64 { return float64(e.Props.Footprint) }

// RateMetric ranks by achieved flow rate.
func RateMetric(e *dfl.Edge) float64 { return e.Props.Rate() }

// LatencyMetric ranks by blocking time.
func LatencyMetric(e *dfl.Edge) float64 { return e.Props.Latency }

// Project extracts entities of one kind from the graph, scoring with metric.
// For vertex entities, the metric is applied to each incident edge and
// summed (the vertex's data/task relation). For producer-consumer triples,
// the score is the minimum of the producer and consumer edge scores — the
// flow actually carried through the dataset.
func Project(g *dfl.Graph, kind EntityKind, metric EdgeMetric) []Entity {
	if metric == nil {
		metric = VolumeMetric
	}
	var out []Entity
	switch kind {
	case DataEntity, TaskEntity:
		ix := g.Index()
		all, nt := ix.SlotsByID()
		slots := all[nt:]
		if kind == TaskEntity {
			slots = all[:nt]
		}
		for _, p := range slots {
			inE, _ := ix.In(p)
			outE, _ := ix.Out(p)
			var val float64
			for _, e := range inE {
				val += metric(e)
			}
			for _, e := range outE {
				val += metric(e)
			}
			ent := Entity{Kind: kind, Value: val, Detail: classify(len(inE), len(outE)).String()}
			if kind == DataEntity {
				ent.Data = ix.IDAt(p)
			} else {
				ent.Producer = ix.IDAt(p)
			}
			out = append(out, ent)
		}
	case ProducerRelation:
		for _, e := range g.Edges() {
			if e.Kind == dfl.Producer {
				out = append(out, Entity{Kind: kind, Producer: e.Src, Data: e.Dst,
					Value: metric(e)})
			}
		}
	case ConsumerRelation:
		for _, e := range g.Edges() {
			if e.Kind == dfl.Consumer {
				out = append(out, Entity{Kind: kind, Data: e.Src, Consumer: e.Dst,
					Value: metric(e)})
			}
		}
	case ProducerConsumerRelation:
		ix := g.Index()
		slots, nt := ix.SlotsByID()
		for _, p := range slots[nt:] {
			inE, _ := ix.In(p)
			outE, _ := ix.Out(p)
			for _, pe := range inE {
				for _, ce := range outE {
					pv, cv := metric(pe), metric(ce)
					val := pv
					if cv < val {
						val = cv
					}
					out = append(out, Entity{Kind: kind,
						Producer: pe.Src, Data: ix.IDAt(p), Consumer: ce.Dst,
						Value:  val,
						Detail: projectDetail(pv, cv)})
				}
			}
		}
	}
	return out
}

// Rank sorts entities by descending value (ties by name) and returns them.
func Rank(entities []Entity) []Entity {
	rankBy(entities, func(e *Entity) float64 { return e.Value }, (*Entity).appendText)
	return entities
}

// rankBy sorts items in place by descending value, ties by ascending key,
// with sort.SliceStable. Each value and key is computed once, not once per
// comparison: nearly every key is compared, since few values are distinct, so
// the keys are appended into fixed-size byte blocks rather than rendered as a
// string each. A full block is left as it is and a new one started, so no key
// is copied to grow a buffer. Byte-wise comparison of the key slices is the
// string order. The sort permutes indices under the comparator the items
// themselves would get, so the order is the one sorting the items gives.
func rankBy[T any](items []T, value func(*T) float64, appendKey func(*T, []byte) []byte) {
	const blockSize, minFree = 16 << 10, 256
	vals := make([]float64, len(items))
	keys := make([][]byte, len(items))
	idx := make([]int, len(items))
	var block []byte
	for i := range items {
		vals[i], idx[i] = value(&items[i]), i
		if cap(block)-len(block) < minFree {
			block = make([]byte, 0, blockSize)
		}
		start := len(block)
		block = appendKey(&items[i], block)
		keys[i] = block[start:]
	}
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if vals[i] != vals[j] {
			return vals[i] > vals[j]
		}
		return bytes.Compare(keys[i], keys[j]) < 0
	})
	ranked := make([]T, len(items))
	for k, i := range idx {
		ranked[k] = items[i]
	}
	copy(items, ranked)
}

// RankProducerConsumerByVolume produces the paper's Fig. 2f table: the
// workflow's producer-consumer relations ranked by flow volume.
func RankProducerConsumerByVolume(g *dfl.Graph) []Entity {
	return Rank(Project(g, ProducerConsumerRelation, VolumeMetric))
}

// Table renders ranked entities as a fixed-width text table (the paper's
// ranking tables, e.g. Fig. 1c and Fig. 2f).
func Table(title string, entities []Entity, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-4s %-52s %14s  %s\n", "rank", "entity", "value", "detail")
	if limit <= 0 || limit > len(entities) {
		limit = len(entities)
	}
	for i := 0; i < limit; i++ {
		e := entities[i]
		name := entityName(e)
		fmt.Fprintf(&b, "%-4d %-52s %14.4g  %s\n", i+1, name, e.Value, e.Detail)
	}
	return b.String()
}

func entityName(e Entity) string {
	switch e.Kind {
	case DataEntity:
		return e.Data.Name
	case TaskEntity:
		return e.Producer.Name
	case ProducerRelation:
		return e.Producer.Name + " -> " + e.Data.Name
	case ConsumerRelation:
		return e.Data.Name + " -> " + e.Consumer.Name
	default:
		return e.Producer.Name + " -> " + e.Data.Name + " -> " + e.Consumer.Name
	}
}
