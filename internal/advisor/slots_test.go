package advisor

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"datalife/internal/dfl"
	"datalife/internal/dfl/dfltest"
)

// TestLocalityScoreChecksSlots scores plans whose recorded slots no longer
// name their files: the graph compacted after Advise, the placements were
// reordered or cut, or the plan was built by hand. Each score must equal the
// ID-keyed reference to the bit.
func TestLocalityScoreChecksSlots(t *testing.T) {
	check := func(what string, p *Plan, g *dfl.Graph) {
		t.Helper()
		if a, b := p.LocalityScore(g), referenceLocalityScore(p, g); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: LocalityScore %v, reference %v", what, a, b)
		}
	}
	l := dfltest.NewLayered(3)
	l.Grow(300)
	l.Perturb(t) // the next query derives an overlay snapshot
	g := l.G
	plan, err := Advise(g, Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.slots) != len(plan.Placements) {
		t.Fatalf("%d slots for %d placements", len(plan.slots), len(plan.Placements))
	}
	check("fresh plan", plan, g)

	reordered := *plan
	reordered.Placements = slices.Clone(plan.Placements)
	slices.Reverse(reordered.Placements)
	check("reversed placements", &reordered, g)
	reordered.Placements = reordered.Placements[len(reordered.Placements)/2:]
	check("cut placements", &reordered, g)
	check("hand-built plan", &Plan{Placements: plan.Placements}, g)

	// Compaction moves the overlay slots into canonical order, so some
	// recorded slots now name other vertices.
	before := g.Index()
	g.Invalidate()
	if after := g.Index(); after == before {
		t.Fatal("Invalidate did not derive a new snapshot")
	}
	moved := 0
	for k, fp := range plan.Placements {
		if g.Index().IDAt(plan.slots[k]) != fp.File {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("compaction moved no placement's slot; the stale-slot case is not exercised")
	}
	check("plan from an older snapshot", plan, g)
}

// TestExtractThreadsFileToFileEdges runs thread extraction on graphs with an
// edge between two files, which only AddUncheckedEdge can add. A file's data
// peer belongs to no thread, and a file with no task peer adds to no thread.
// Advise rejects both graphs.
func TestExtractThreadsFileToFileEdges(t *testing.T) {
	flow := func(v uint64) dfl.FlowProps { return dfl.FlowProps{Volume: v, Latency: 1} }
	for _, tc := range []struct {
		name  string
		build func(g *dfl.Graph)
		want  []Thread
	}{
		{
			name: "x→y",
			build: func(g *dfl.Graph) {
				g.AddUncheckedEdge(dfl.DataID("x"), dfl.DataID("y"), dfl.Producer, flow(2))
			},
		},
		{
			name: "a→x→y→b",
			build: func(g *dfl.Graph) {
				g.AddUncheckedEdge(dfl.TaskID("a"), dfl.DataID("x"), dfl.Producer, flow(1))
				g.AddUncheckedEdge(dfl.DataID("x"), dfl.DataID("y"), dfl.Producer, flow(2))
				g.AddUncheckedEdge(dfl.DataID("y"), dfl.TaskID("b"), dfl.Consumer, flow(4))
			},
			// x's flow (1+2) and y's (2+4) stay inside the one thread.
			want: []Thread{{Tasks: []dfl.ID{dfl.TaskID("a"), dfl.TaskID("b")}, InternalFlow: 9}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := dfl.New()
			tc.build(g)
			if got := ExtractThreads(g); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ExtractThreads = %+v, want %+v", got, tc.want)
			}
			if _, err := Advise(g, Config{}); err == nil ||
				!strings.Contains(err.Error(), "do not join a task and a data vertex") {
				t.Fatalf("Advise error = %v, want the same-kind edge rejection", err)
			}
		})
	}
}
