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
