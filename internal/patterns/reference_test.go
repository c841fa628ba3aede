package patterns

import (
	"math"

	"datalife/internal/cpa"
	"datalife/internal/dfl"
)

// The reference detectors: Analyze and Project as they read the graph by
// vertex ID, through the canonical vertex lists and the ID-keyed adjacency,
// before the detectors read snapshot slots. The slot code must produce the
// same opportunities and entities.

// referenceAnalyze is Analyze as the detectors scoped themselves before
// Caterpillar.Scope: every detector loop walked the whole graph's canonical
// task, file or edge list and skipped what the caterpillar does not contain.
// Caterpillar-scoped Analyze must produce the same opportunities.
func referenceAnalyze(g *dfl.Graph, cat *cpa.Caterpillar, cfg Config) []Opportunity {
	inScope := func(id dfl.ID) bool { return cat == nil || cat.Contains(id) }
	var tasks, data []*dfl.Vertex
	var edges []*dfl.Edge
	for _, v := range g.Tasks() {
		if inScope(v.ID) {
			tasks = append(tasks, v)
		}
	}
	for _, v := range g.DataFiles() {
		if inScope(v.ID) {
			data = append(data, v)
		}
	}
	for _, e := range g.Edges() {
		if inScope(e.Src) && inScope(e.Dst) {
			edges = append(edges, e)
		}
	}
	cfg = cfg.withDefaults()
	var out []Opportunity
	out = append(out, detectDataVolume(g, edges)...)
	out = append(out, refDetectMismatchedRate(g, data)...)
	out = append(out, refDetectDataNonUse(g, data)...)
	out = append(out, detectIntraTaskLocality(edges)...)
	out = append(out, refDetectInterTaskLocality(g, data)...)
	out = append(out, refDetectCriticalFlow(g, cat)...)
	out = append(out, refDetectParallelismTradeoff(g, tasks, cfg)...)
	out = append(out, refDetectTaskCompositions(g, tasks)...)
	rankBy(out, func(o *Opportunity) float64 { return o.Severity }, (*Opportunity).appendText)
	return out
}

// referencePathEdges is cpa.PathEdges as it read the graph: one FindEdge
// lookup per step.
func referencePathEdges(g *dfl.Graph, p cpa.Path) []*dfl.Edge {
	var out []*dfl.Edge
	for i := 0; i+1 < len(p.Vertices); i++ {
		if e := g.FindEdge(p.Vertices[i], p.Vertices[i+1]); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// refDetectMismatchedRate compares producer vs consumer data rates per data
// vertex (Table 1 row 2).
func refDetectMismatchedRate(g *dfl.Graph, data []*dfl.Vertex) []Opportunity {
	var out []Opportunity
	for _, v := range data {
		var inRate, outRate float64
		for _, e := range g.In(v.ID) {
			inRate += e.Props.Rate()
		}
		for _, e := range g.Out(v.ID) {
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
			for _, e := range g.Out(v.ID) {
				vol += float64(e.Props.Volume)
			}
			out = append(out, newOpp(MismatchedRate, vol*math.Log2(ratio),
				rateDetail(inRate, outRate, ratio),
				false, v.ID))
		}
	}
	return out
}

// refDetectDataNonUse finds (a) data leaf vertices with producers but no
// consumers and (b) consumer flows whose footprint is well below the file
// size (Table 1 row 3).
func refDetectDataNonUse(g *dfl.Graph, data []*dfl.Vertex) []Opportunity {
	var out []Opportunity
	for _, v := range data {
		if g.InDegree(v.ID) > 0 && g.OutDegree(v.ID) == 0 {
			out = append(out, newOpp(DataNonUse, float64(v.Data.Size),
				unconsumedDetail(v.Data.Size),
				false, v.ID))
			continue
		}
		for _, e := range g.Out(v.ID) {
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

// refDetectInterTaskLocality flags data consumed by multiple distinct tasks
// (Table 1 row 5: case 1/3 — multiple consumers share one file — and case 2
// — instances of the same task template access the same data, e.g. control
// loops).
func refDetectInterTaskLocality(g *dfl.Graph, data []*dfl.Vertex) []Opportunity {
	var out []Opportunity
	for _, v := range data {
		consumers := g.Consumers(v.ID)
		if len(consumers) < 2 {
			continue
		}
		var vol float64
		for _, e := range g.Out(v.ID) {
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
		vs := append([]dfl.ID{v.ID}, consumers...)
		out = append(out, newOpp(InterTaskLocality, vol*float64(len(consumers)-1),
			detail, false, vs...))
	}
	return out
}

// refDetectCriticalFlow flags the heaviest-latency flows along the caterpillar
// spine (Table 1 row 6). These require validation when the remediation
// relaxes synchronization.
func refDetectCriticalFlow(g *dfl.Graph, cat *cpa.Caterpillar) []Opportunity {
	if cat == nil {
		return nil
	}
	edges := referencePathEdges(g, cat.Spine)
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

// refDetectParallelismTradeoff flags consumer tasks whose in-degree implies many
// concurrently-executing producers (Table 1 row 7). Requires validation.
func refDetectParallelismTradeoff(g *dfl.Graph, tasks []*dfl.Vertex, cfg Config) []Opportunity {
	var out []Opportunity
	for _, v := range tasks {
		in := g.InDegree(v.ID)
		if in < cfg.ParallelismInDegree {
			continue
		}
		out = append(out, newOpp(ParallelismTradeoff, float64(in),
			parallelismDetail(in), true, v.ID))
	}
	return out
}

// refDetectTaskCompositions finds the §5.3–5.4 task-relation patterns:
// aggregators, compressor-aggregators, splitters, and aggregator-then-regular
// compositions.
func refDetectTaskCompositions(g *dfl.Graph, tasks []*dfl.Vertex) []Opportunity {
	var out []Opportunity
	for _, v := range tasks {
		in, outd := g.InDegree(v.ID), g.OutDegree(v.ID)

		// Splitter: one input, many outputs.
		if in <= 1 && outd >= 2 {
			var vol float64
			for _, e := range g.Out(v.ID) {
				vol += float64(e.Props.Volume)
			}
			out = append(out, newOpp(SplitterPattern, vol,
				splitterDetail(outd), false, v.ID))
		}

		// Aggregator: many inputs of similar size, combined output(s).
		if in >= 2 && outd >= 1 {
			var sizes []float64
			var inVol float64
			for _, e := range g.In(v.ID) {
				sizes = append(sizes, float64(e.Props.Volume))
				inVol += float64(e.Props.Volume)
			}
			if cv := coeffVar(sizes); cv <= aggregatorCV {
				var outVol float64
				for _, e := range g.Out(v.ID) {
					outVol += float64(e.Props.Volume)
				}
				if inVol > 0 && outVol > 0 && outVol/inVol < compressRatio {
					out = append(out, newOpp(CompressorAggregator, inVol,
						compressorDetail(in, inVol, outVol, 100*outVol/inVol), false, v.ID))
				} else {
					out = append(out, newOpp(AggregatorPattern, inVol,
						aggregatorDetail(in, inVol, cv), false, v.ID))
				}

				// Composition: aggregator followed by a regular task (§5.4).
				for _, pe := range g.Out(v.ID) {
					for _, ce := range g.Out(pe.Dst) {
						if Classify(g, ce.Dst) == Regular || g.InDegree(ce.Dst) == 1 {
							out = append(out, newOpp(AggregatorThenRegular,
								float64(pe.Props.Volume),
								feedsDetail(pe.Dst.Name, ce.Dst.Name),
								false, v.ID, pe.Dst, ce.Dst))
						}
					}
				}
			}
		}
	}
	return out
}

// referenceProject is Project as it read the graph by vertex ID: the
// canonical vertex lists and the ID-keyed adjacency. Project extracts
// entities of one kind from the graph, scoring with metric.
// For vertex entities, the metric is applied to each incident edge and
// summed (the vertex's data/task relation). For producer-consumer triples,
// the score is the minimum of the producer and consumer edge scores — the
// flow actually carried through the dataset.
func referenceProject(g *dfl.Graph, kind EntityKind, metric EdgeMetric) []Entity {
	if metric == nil {
		metric = VolumeMetric
	}
	var out []Entity
	switch kind {
	case DataEntity:
		for _, v := range g.DataFiles() {
			var val float64
			for _, e := range g.In(v.ID) {
				val += metric(e)
			}
			for _, e := range g.Out(v.ID) {
				val += metric(e)
			}
			out = append(out, Entity{Kind: kind, Data: v.ID, Value: val,
				Detail: Classify(g, v.ID).String()})
		}
	case TaskEntity:
		for _, v := range g.Tasks() {
			var val float64
			for _, e := range g.In(v.ID) {
				val += metric(e)
			}
			for _, e := range g.Out(v.ID) {
				val += metric(e)
			}
			out = append(out, Entity{Kind: kind, Producer: v.ID, Value: val,
				Detail: Classify(g, v.ID).String()})
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
		for _, v := range g.DataFiles() {
			for _, pe := range g.In(v.ID) {
				for _, ce := range g.Out(v.ID) {
					pv, cv := metric(pe), metric(ce)
					val := pv
					if cv < val {
						val = cv
					}
					out = append(out, Entity{Kind: kind,
						Producer: pe.Src, Data: v.ID, Consumer: ce.Dst,
						Value:  val,
						Detail: projectDetail(pv, cv)})
				}
			}
		}
	}
	return out
}

// referenceEstimateBenefits is EstimateBenefits as it read the graph by
// vertex ID, through FindEdge, Out and UseConcurrency. EstimateBenefits computes a what-if saving for each opportunity that has a
// quantifiable remediation, ranked by predicted saving. Opportunities whose
// benefit depends on validation or scheduling context estimate zero and are
// omitted.
func referenceEstimateBenefits(g *dfl.Graph, opps []Opportunity, env ResourceEnvelope) []Benefit {
	if env.SharedBW <= 0 {
		env = DefaultEnvelope()
	}
	var out []Benefit
	for _, o := range opps {
		var saved float64
		var how string
		switch o.Kind {
		case IntraTaskLocality:
			// Caching hot blocks: re-read volume beyond the footprint moves
			// from storage to cache bandwidth.
			e := referenceEdgeFor(g, o)
			if e == nil || env.CacheBW <= 0 {
				continue
			}
			rereads := float64(e.Props.Volume) - float64(e.Props.Footprint)
			if rereads <= 0 {
				continue
			}
			saved = rereads/env.SharedBW - rereads/env.CacheBW
			how = "cache hot blocks (re-reads served from memory)"
		case InterTaskLocality:
			// All but the first consumer's bytes can come from a shared
			// cache or a retained local copy.
			data := dataVertexOf(o)
			if data == nil {
				continue
			}
			var vol float64
			for _, e := range g.Out(*data) {
				vol += float64(e.Props.Volume)
			}
			consumers := g.UseConcurrency(*data)
			if consumers < 2 || env.CacheBW <= 0 {
				continue
			}
			shareable := vol * float64(consumers-1) / float64(consumers)
			saved = shareable/env.SharedBW - shareable/env.CacheBW
			how = "co-schedule consumers and cache the shared data"
		case DataVolume, CriticalFlow:
			// Pairing the flow with local storage trades shared for local
			// bandwidth.
			e := referenceEdgeFor(g, o)
			if e == nil || env.LocalBW <= env.SharedBW {
				continue
			}
			v := float64(e.Props.Volume)
			saved = v/env.SharedBW - v/env.LocalBW
			how = "stage flow to node-local storage"
		case DataNonUse:
			// Selective movement: unused bytes never move.
			saved = o.Severity / env.SharedBW
			how = "move only the consumed subset"
		default:
			continue
		}
		if saved <= 0 {
			continue
		}
		out = append(out, Benefit{Opportunity: o, SavedSeconds: saved, Mechanism: how})
	}
	rankBy(out, func(b *Benefit) float64 { return b.SavedSeconds }, (*Benefit).appendText)
	return out
}

// referenceEdgeFor recovers the flow edge an opportunity refers to from its vertex
// pair, if it has one.
func referenceEdgeFor(g *dfl.Graph, o Opportunity) *dfl.Edge {
	if len(o.Vertices) < 2 {
		return nil
	}
	if e := g.FindEdge(o.Vertices[0], o.Vertices[1]); e != nil {
		return e
	}
	return g.FindEdge(o.Vertices[1], o.Vertices[0])
}
