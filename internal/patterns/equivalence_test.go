package patterns

import (
	"fmt"
	"reflect"
	"testing"

	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/dfl/dfltest"
)

// checkAnalyzeMatchesReference compares Analyze with the whole-graph
// reference, without a caterpillar and with the caterpillar of each given
// spine.
func checkAnalyzeMatchesReference(t *testing.T, name string, g *dfl.Graph, spines []cpa.Path) {
	t.Helper()
	for _, cfg := range []Config{{}, {ParallelismInDegree: 2}} {
		if got, want := Analyze(g, nil, cfg), referenceAnalyze(g, nil, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: whole-graph Analyze differs from the reference", name)
		}
		for i, p := range spines {
			cat := cpa.DFLCaterpillar(g, p)
			if got, want := Analyze(g, cat, cfg), referenceAnalyze(g, cat, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Analyze on caterpillar %d differs from the reference:\n got %v\nwant %v", name, i, got, want)
			}
		}
	}
}

// spinesOf returns the critical path under several weights and a few
// near-critical paths, or none on a cyclic graph.
func spinesOf(t *testing.T, g *dfl.Graph) []cpa.Path {
	t.Helper()
	if !g.IsDAG() {
		return nil
	}
	var out []cpa.Path
	for _, w := range []cpa.EdgeWeight{cpa.ByVolume, cpa.ByLatency, cpa.ByFootprint} {
		ps, err := cpa.NearCriticalPaths(g, w, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ps...)
	}
	p, err := cpa.CriticalPath(g, nil, cpa.ByTaskTime)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, p)
}

func TestAnalyzeMatchesReference(t *testing.T) {
	for _, c := range dfltest.Corpus(t) {
		checkAnalyzeMatchesReference(t, c.Name, c.G, spinesOf(t, c.G))
	}
}

// TestAnalyzeStaleCaterpillarMatchesReference builds caterpillars, then edits
// the graph under them, the first spine's edges included: Analyze must read
// the graph as it is now, as the whole-graph reference does, not the snapshot
// the caterpillar was built on.
func TestAnalyzeStaleCaterpillarMatchesReference(t *testing.T) {
	for _, cut := range []int{60, 400} {
		l := dfltest.NewLayered(int64(cut))
		l.Grow(cut)
		spines := spinesOf(t, l.G)
		cats := make([]*cpa.Caterpillar, len(spines))
		for i, p := range spines {
			cats[i] = cpa.DFLCaterpillar(l.G, p)
		}
		l.Perturb(t)
		for _, e := range cpa.PathEdges(l.G, spines[0]) {
			p := e.Props
			p.Volume, p.Latency = 5*p.Volume, 3*p.Latency
			l.G.SetEdgeProps(e.Src, e.Dst, p)
		}
		for i, cat := range cats {
			for _, cfg := range []Config{{}, {ParallelismInDegree: 2}} {
				if got, want := Analyze(l.G, cat, cfg), referenceAnalyze(l.G, cat, cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("layered-%d: Analyze on stale caterpillar %d differs from the reference", cut, i)
				}
			}
		}
		checkAnalyzeMatchesReference(t, fmt.Sprintf("layered-%d perturbed", cut), l.G, spinesOf(t, l.G))
	}
}

// TestProjectMatchesReference compares Project with the ID-keyed reference
// for every entity kind, under two metrics, on the corpus graphs.
func TestProjectMatchesReference(t *testing.T) {
	for _, c := range dfltest.Corpus(t) {
		for kind := DataEntity; kind <= ProducerConsumerRelation; kind++ {
			for _, m := range []EdgeMetric{VolumeMetric, LatencyMetric} {
				if got, want := Project(c.G, kind, m), referenceProject(c.G, kind, m); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Project(%v) differs from the reference", c.Name, kind)
				}
			}
		}
	}
}

// TestEstimateBenefitsMatchesReference compares EstimateBenefits with the
// ID-keyed reference on the opportunities of the corpus graphs, with and
// without the primary caterpillar, under the default and a local-storage
// envelope.
func TestEstimateBenefitsMatchesReference(t *testing.T) {
	envs := []ResourceEnvelope{DefaultEnvelope(), {SharedBW: 1e9, LocalBW: 4e9, CacheBW: 2e9}}
	kinds := make(map[Kind]bool)
	for _, c := range dfltest.Corpus(t) {
		opps := Analyze(c.G, nil, Config{ParallelismInDegree: 2})
		for _, p := range spinesOf(t, c.G) {
			opps = append(opps, Analyze(c.G, cpa.DFLCaterpillar(c.G, p), Config{})...)
		}
		for _, env := range envs {
			if got, want := EstimateBenefits(c.G, opps, env), referenceEstimateBenefits(c.G, opps, env); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: EstimateBenefits differs from the reference", c.Name, env)
			} else {
				for _, b := range got {
					kinds[b.Kind] = true
				}
			}
		}
	}
	for _, k := range []Kind{DataVolume, IntraTaskLocality, InterTaskLocality, CriticalFlow, DataNonUse} {
		if !kinds[k] {
			t.Errorf("no %v benefit was compared", k)
		}
	}
}
