package patterns

import (
	"fmt"
	"math"

	"datalife/internal/cpa"
	"datalife/internal/dfl"
)

// Kind enumerates the opportunity patterns of Table 1 plus the task-relation
// and composition patterns of §5.3–5.4.
type Kind uint8

const (
	// DataVolume: tasks read/write large data volumes.
	DataVolume Kind = iota
	// MismatchedRate: producer and consumer data rates differ enough to stall.
	MismatchedRate
	// DataNonUse: data not used by any consumer, in whole or in part.
	DataNonUse
	// IntraTaskLocality: spatio-temporal access locality within a file.
	IntraTaskLocality
	// InterTaskLocality: the same data is used by multiple tasks or instances.
	InterTaskLocality
	// CriticalFlow: a flow on the caterpillar that causes stalling.
	CriticalFlow
	// ParallelismTradeoff: consumer in-degree implies concurrent producers.
	ParallelismTradeoff
	// AggregatorPattern: task fan-in combining similar-size inputs (§5.3).
	AggregatorPattern
	// CompressorAggregator: an aggregator whose output is smaller than its
	// inputs (§5.3).
	CompressorAggregator
	// SplitterPattern: task fan-out scattering one input to many outputs (§5.4).
	SplitterPattern
	// AggregatorThenRegular: an aggregator followed by a single regular
	// consumer (§5.4) — a coalescing/co-scheduling candidate.
	AggregatorThenRegular
)

var kindNames = [...]string{
	"data-volume", "mismatched-rate", "data-non-use", "intra-task-locality",
	"inter-task-locality", "critical-flow", "parallelism-tradeoff",
	"aggregator", "compressor-aggregator", "splitter", "aggregator-then-regular",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// remediations mirrors Table 1's remediation column.
var remediations = map[Kind]string{
	DataVolume:            "pair tasks & storage resources; write buffering; anticipatory data movement",
	MismatchedRate:        "pair tasks & flow resources; adjust data generation rate; data filtering/compression",
	DataNonUse:            "selective movement (on-demand caching); data filtering",
	IntraTaskLocality:     "caching (hints, biased policies); block prefetching",
	InterTaskLocality:     "caching; co-scheduling; data retention and placement",
	CriticalFlow:          "bias resources for critical flows; anticipatory movement; change task-data synchronization",
	ParallelismTradeoff:   "coordinate parallelism, task placement, and data flow resources",
	AggregatorPattern:     "pipeline aggregation across links/storage; evaluate serialization overhead",
	CompressorAggregator:  "assign to resource that benefits downstream flows; reconsider compression vs serialization",
	SplitterPattern:       "co-schedule splitter with consumers; partition-aware placement",
	AggregatorThenRegular: "coalesce or co-schedule the aggregator and its consumer",
}

// Opportunity is one identified remediation candidate.
type Opportunity struct {
	Kind Kind
	// Vertices lists the involved vertices (entity).
	Vertices []dfl.ID
	// Severity ranks opportunities; higher means more promising.
	Severity float64
	// Detail explains the match.
	Detail string
	// Remediation suggests Table 1 strategies.
	Remediation string
	// MustValidate marks patterns the paper requires a human to confirm.
	MustValidate bool
}

func (o Opportunity) String() string { return string(o.appendText(nil)) }

// Config tunes detector thresholds. Zero values select defaults.
type Config struct {
	// ParallelismInDegree is the consumer in-degree that triggers the
	// trade-off pattern (default 4).
	ParallelismInDegree int
}

// Detector thresholds.
const (
	// volumeFraction flags flows whose volume exceeds this fraction of the
	// total graph volume.
	volumeFraction = 0.10
	// rateMismatchFactor flags producer/consumer rate ratios beyond this
	// factor.
	rateMismatchFactor = 3
	// nonUseFraction flags consumers whose footprint is below this fraction
	// of the file size.
	nonUseFraction = 0.9
	// localityFraction flags flows whose zero- or small-distance fraction
	// exceeds this value.
	localityFraction = 0.5
	// reuseThreshold flags flows with volume/footprint above this.
	reuseThreshold = 1.5
	// aggregatorCV is the maximum coefficient of variation for "similar
	// size" aggregator inputs.
	aggregatorCV = 1.0
	// compressRatio is the output/input ratio under which an aggregator is a
	// compressor.
	compressRatio = 0.8
)

func (c Config) withDefaults() Config {
	if c.ParallelismInDegree == 0 {
		c.ParallelismInDegree = 4
	}
	return c
}

// Analyze runs every Table 1 detector over the graph. When cat is non-nil the
// search is narrowed to the caterpillar tree (§5.1): the detectors visit only
// its member vertices and the edges between them (Caterpillar.Scope);
// otherwise the whole graph is scanned. Results are ranked by severity.
func Analyze(g *dfl.Graph, cat *cpa.Caterpillar, cfg Config) []Opportunity {
	var (
		ix          *dfl.Index
		tasks, data []int32
		edges       []*dfl.Edge
	)
	if cat != nil {
		ix, tasks, data, edges = cat.Scope(g)
	} else {
		ix = g.Index()
		slots, nt := ix.SlotsByID()
		tasks, data, edges = slots[:nt:nt], slots[nt:], g.Edges()
	}
	cfg = cfg.withDefaults()
	var out []Opportunity
	out = append(out, detectDataVolume(g, edges)...)
	out = append(out, detectMismatchedRate(ix, data)...)
	out = append(out, detectDataNonUse(ix, data)...)
	out = append(out, detectIntraTaskLocality(edges)...)
	out = append(out, detectInterTaskLocality(ix, data)...)
	out = append(out, detectCriticalFlow(g, cat)...)
	out = append(out, detectParallelismTradeoff(ix, tasks, cfg)...)
	out = append(out, detectTaskCompositions(ix, tasks)...)
	rankBy(out, func(o *Opportunity) float64 { return o.Severity }, (*Opportunity).appendText)
	return out
}

func newOpp(k Kind, sev float64, detail string, mustValidate bool, vs ...dfl.ID) Opportunity {
	return Opportunity{Kind: k, Vertices: vs, Severity: sev, Detail: detail,
		Remediation: remediations[k], MustValidate: mustValidate}
}

// detectDataVolume flags flows whose volume exceeds a fraction of total flow
// (Table 1 row 1: volumes exceeding storage or network ability).
func detectDataVolume(g *dfl.Graph, edges []*dfl.Edge) []Opportunity {
	total := g.TotalVolume()
	if total == 0 {
		return nil
	}
	thresh := uint64(float64(total) * volumeFraction)
	var out []Opportunity
	for _, e := range edges {
		if e.Props.Volume > thresh {
			out = append(out, newOpp(DataVolume, float64(e.Props.Volume),
				volumeDetail(e.Props.Volume, 100*float64(e.Props.Volume)/float64(total)),
				false, e.Src, e.Dst))
		}
	}
	return out
}

// detectMismatchedRate compares producer vs consumer data rates per data
// vertex (Table 1 row 2).
func detectMismatchedRate(ix *dfl.Index, data []int32) []Opportunity {
	var out []Opportunity
	for _, p := range data {
		inE, _ := ix.In(p)
		outE, _ := ix.Out(p)
		var inRate, outRate float64
		for _, e := range inE {
			inRate += e.Props.Rate()
		}
		for _, e := range outE {
			outRate += e.Props.Rate()
		}
		if inRate == 0 || outRate == 0 {
			continue
		}
		ratio := inRate / outRate
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio >= rateMismatchFactor {
			vol := float64(0)
			for _, e := range outE {
				vol += float64(e.Props.Volume)
			}
			out = append(out, newOpp(MismatchedRate, vol*math.Log2(ratio),
				rateDetail(inRate, outRate, ratio),
				false, ix.IDAt(p)))
		}
	}
	return out
}

// detectDataNonUse finds (a) data leaf vertices with producers but no
// consumers and (b) consumer flows whose footprint is well below the file
// size (Table 1 row 3).
func detectDataNonUse(ix *dfl.Index, data []int32) []Opportunity {
	var out []Opportunity
	for _, p := range data {
		v := ix.VertexAt(p)
		outE, _ := ix.Out(p)
		if ix.InDegree(p) > 0 && len(outE) == 0 {
			out = append(out, newOpp(DataNonUse, float64(v.Data.Size),
				unconsumedDetail(v.Data.Size),
				false, v.ID))
			continue
		}
		for _, e := range outE {
			if v.Data.Size <= 0 {
				continue
			}
			frac := float64(e.Props.Footprint) / float64(v.Data.Size)
			if frac < nonUseFraction {
				unused := float64(v.Data.Size) - float64(e.Props.Footprint)
				out = append(out, newOpp(DataNonUse, unused,
					partialUseDetail(e.Dst.Name, 100*frac, v.Data.Size),
					false, v.ID, e.Dst))
			}
		}
	}
	return out
}

// detectIntraTaskLocality flags consumer flows with strong spatial locality
// (small consecutive access distances) or temporal reuse (Table 1 row 4).
func detectIntraTaskLocality(edges []*dfl.Edge) []Opportunity {
	var out []Opportunity
	for _, e := range edges {
		if e.Kind != dfl.Consumer {
			continue
		}
		spatial := e.Props.SmallDistFrac >= localityFraction
		reuse := e.Props.ReuseFactor() >= reuseThreshold
		if !spatial && !reuse {
			continue
		}
		kinds := localityDetail(spatial, reuse,
			100*e.Props.SmallDistFrac, 100*e.Props.ZeroDistFrac, e.Props.ReuseFactor())
		out = append(out, newOpp(IntraTaskLocality,
			float64(e.Props.Volume)*math.Max(e.Props.SmallDistFrac, e.Props.ReuseFactor()-1),
			kinds, false, e.Src, e.Dst))
	}
	return out
}

// detectInterTaskLocality flags data consumed by multiple distinct tasks
// (Table 1 row 5: case 1/3 — multiple consumers share one file — and case 2
// — instances of the same task template access the same data, e.g. control
// loops).
func detectInterTaskLocality(ix *dfl.Index, data []int32) []Opportunity {
	var out []Opportunity
	for _, p := range data {
		consumers := ix.Consumers(p)
		if len(consumers) < 2 {
			continue
		}
		outE, _ := ix.Out(p)
		var vol float64
		for _, e := range outE {
			vol += float64(e.Props.Volume)
		}
		// Case 2: if the consumers are instances of one task template, the
		// reuse recurs across instances (loop iterations) — data retention
		// is the remediation; otherwise it is plain multi-consumer sharing.
		// The template with the most instances is named, ties going to the
		// smaller name, so the report does not depend on map order.
		templates := make(map[string]int)
		for _, c := range consumers {
			templates[dfl.InstanceSuffixGroup(dfl.TaskVertex, c.Name)]++
		}
		loopTemplate, loopN := "", 1
		for tpl, n := range templates {
			if n > loopN || n == loopN && tpl < loopTemplate {
				loopTemplate, loopN = tpl, n
			}
		}
		detail := sharedDetail(len(consumers), vol, loopN, loopTemplate)
		vs := append([]dfl.ID{ix.IDAt(p)}, consumers...)
		out = append(out, newOpp(InterTaskLocality, vol*float64(len(consumers)-1),
			detail, false, vs...))
	}
	return out
}

// detectCriticalFlow flags the heaviest-latency flows along the caterpillar
// spine (Table 1 row 6). These require validation when the remediation
// relaxes synchronization.
func detectCriticalFlow(g *dfl.Graph, cat *cpa.Caterpillar) []Opportunity {
	if cat == nil {
		return nil
	}
	edges := cpa.PathEdges(g, cat.Spine)
	var total float64
	for _, e := range edges {
		total += e.Props.Latency
	}
	if total == 0 {
		return nil
	}
	var out []Opportunity
	for _, e := range edges {
		share := e.Props.Latency / total
		if share < 0.25 {
			continue
		}
		out = append(out, newOpp(CriticalFlow, e.Props.Latency,
			criticalFlowDetail(e.Props.Latency, 100*share), true, e.Src, e.Dst))
	}
	return out
}

// detectParallelismTradeoff flags consumer tasks whose in-degree implies many
// concurrently-executing producers (Table 1 row 7). Requires validation.
func detectParallelismTradeoff(ix *dfl.Index, tasks []int32, cfg Config) []Opportunity {
	var out []Opportunity
	for _, p := range tasks {
		in := ix.InDegree(p)
		if in < cfg.ParallelismInDegree {
			continue
		}
		out = append(out, newOpp(ParallelismTradeoff, float64(in),
			parallelismDetail(in), true, ix.IDAt(p)))
	}
	return out
}

// detectTaskCompositions finds the §5.3–5.4 task-relation patterns:
// aggregators, compressor-aggregators, splitters, and aggregator-then-regular
// compositions.
func detectTaskCompositions(ix *dfl.Index, tasks []int32) []Opportunity {
	var out []Opportunity
	for _, p := range tasks {
		inE, _ := ix.In(p)
		outE, outD := ix.Out(p)
		in, outd := len(inE), len(outE)
		id := ix.IDAt(p)

		// Splitter: one input, many outputs.
		if in <= 1 && outd >= 2 {
			var vol float64
			for _, e := range outE {
				vol += float64(e.Props.Volume)
			}
			out = append(out, newOpp(SplitterPattern, vol,
				splitterDetail(outd), false, id))
		}

		// Aggregator: many inputs of similar size, combined output(s).
		if in >= 2 && outd >= 1 {
			var sizes []float64
			var inVol float64
			for _, e := range inE {
				sizes = append(sizes, float64(e.Props.Volume))
				inVol += float64(e.Props.Volume)
			}
			if cv := coeffVar(sizes); cv <= aggregatorCV {
				var outVol float64
				for _, e := range outE {
					outVol += float64(e.Props.Volume)
				}
				if inVol > 0 && outVol > 0 && outVol/inVol < compressRatio {
					out = append(out, newOpp(CompressorAggregator, inVol,
						compressorDetail(in, inVol, outVol, 100*outVol/inVol), false, id))
				} else {
					out = append(out, newOpp(AggregatorPattern, inVol,
						aggregatorDetail(in, inVol, cv), false, id))
				}

				// Composition: aggregator followed by a regular task (§5.4).
				for k, pe := range outE {
					ces, cds := ix.Out(outD[k])
					for j, ce := range ces {
						c := cds[j]
						if classify(ix.InDegree(c), ix.OutDegree(c)) == Regular || ix.InDegree(c) == 1 {
							out = append(out, newOpp(AggregatorThenRegular,
								float64(pe.Props.Volume),
								feedsDetail(pe.Dst.Name, ce.Dst.Name),
								false, id, pe.Dst, ce.Dst))
						}
					}
				}
			}
		}
	}
	return out
}

// coeffVar computes the coefficient of variation (stddev/mean).
func coeffVar(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// Report renders opportunities as a ranked text table (Fig. 1c style).
func Report(title string, opps []Opportunity, limit int) string {
	var b []byte
	b = append(b, title...)
	b = append(b, '\n')
	if limit <= 0 || limit > len(opps) {
		limit = len(opps)
	}
	for i := 0; i < limit; i++ {
		b = append(b, fmt.Sprintf("%2d. %s\n", i+1, opps[i])...)
	}
	return string(b)
}
