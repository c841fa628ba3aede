package patterns

import (
	"fmt"
	"slices"
	"strings"

	"datalife/internal/dfl"
)

// What-if benefit estimation: rough, first-order predictions of the time an
// opportunity's remediation could save, used to prioritize remediation work
// before committing to it. The estimates mirror the reasoning the paper
// applies manually in §6 — e.g. "staging this flow to node-local storage
// removes its shared-filesystem blocking time".

// ResourceEnvelope describes the speed gap the remediations can exploit.
type ResourceEnvelope struct {
	// SharedBW is the contended shared-filesystem bandwidth (B/s) flows
	// currently observe.
	SharedBW float64
	// LocalBW is node-local storage bandwidth (B/s) available to
	// staging/caching remediations.
	LocalBW float64
	// CacheBW is in-memory cache bandwidth (B/s) for reuse-driven
	// remediations.
	CacheBW float64
}

// DefaultEnvelope mirrors the repo's calibrated tiers: BeeGFS-class shared
// storage, SSD-class local storage, DRAM-class cache.
func DefaultEnvelope() ResourceEnvelope {
	return ResourceEnvelope{SharedBW: 2.5e9, LocalBW: 3e9, CacheBW: 10e9}
}

// Benefit is one opportunity with its estimated saving.
type Benefit struct {
	Opportunity
	// SavedSeconds is the first-order predicted time saving.
	SavedSeconds float64
	// Mechanism names the remediation the estimate assumes.
	Mechanism string
}

// EstimateBenefits computes a what-if saving for each opportunity that has a
// quantifiable remediation, ranked by predicted saving. Opportunities whose
// benefit depends on validation or scheduling context estimate zero and are
// omitted.
func EstimateBenefits(g *dfl.Graph, opps []Opportunity, env ResourceEnvelope) []Benefit {
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
			e := edgeFor(g, o)
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
			ix, p := g.Locate(*data)
			if p < 0 {
				continue
			}
			outE, _ := ix.Out(p)
			var vol float64
			for _, e := range outE {
				vol += float64(e.Props.Volume)
			}
			consumers := len(ix.Consumers(p))
			if consumers < 2 || env.CacheBW <= 0 {
				continue
			}
			shareable := vol * float64(consumers-1) / float64(consumers)
			saved = shareable/env.SharedBW - shareable/env.CacheBW
			how = "co-schedule consumers and cache the shared data"
		case DataVolume, CriticalFlow:
			// Pairing the flow with local storage trades shared for local
			// bandwidth.
			e := edgeFor(g, o)
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

// edgeFor recovers the flow edge an opportunity refers to from its vertex
// pair, if it has one: the first inserted edge from the first vertex to the
// second, else from the second to the first, as dfl.Graph.FindEdge finds it.
func edgeFor(g *dfl.Graph, o Opportunity) *dfl.Edge {
	if len(o.Vertices) < 2 {
		return nil
	}
	ix, a := g.Locate(o.Vertices[0])
	_, b := g.Locate(o.Vertices[1])
	if a < 0 || b < 0 {
		return nil
	}
	for _, st := range [2][2]int32{{a, b}, {b, a}} {
		out, dsts := ix.Out(st[0])
		if k := slices.Index(dsts, st[1]); k >= 0 {
			return out[k]
		}
	}
	return nil
}

// dataVertexOf returns the opportunity's data vertex, if any.
func dataVertexOf(o Opportunity) *dfl.ID {
	for i := range o.Vertices {
		if o.Vertices[i].Kind == dfl.DataVertex {
			return &o.Vertices[i]
		}
	}
	return nil
}

// BenefitReport renders estimated savings.
func BenefitReport(benefits []Benefit, limit int) string {
	var b strings.Builder
	b.WriteString("what-if savings (first-order estimates):\n")
	if limit <= 0 || limit > len(benefits) {
		limit = len(benefits)
	}
	for i := 0; i < limit; i++ {
		bn := benefits[i]
		names := make([]string, len(bn.Vertices))
		for j, v := range bn.Vertices {
			names[j] = v.Name
		}
		entity := strings.Join(names, ", ")
		if len(entity) > 60 {
			entity = entity[:57] + "..."
		}
		fmt.Fprintf(&b, "%2d. save ~%.3gs  %-22s %s — %s\n",
			i+1, bn.SavedSeconds, bn.Kind, entity, bn.Mechanism)
	}
	return b.String()
}
