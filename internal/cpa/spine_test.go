package cpa

import (
	"reflect"
	"slices"
	"testing"

	"datalife/internal/dfl"
	"datalife/internal/dfl/dfltest"
)

// referenceDFLCaterpillar is DFLCaterpillar with every spine vertex resolved
// by a Pos search, the loop the out-list walk replaced.
func referenceDFLCaterpillar(g *dfl.Graph, spine Path) *Caterpillar {
	ix := g.Index()
	c := &Caterpillar{Spine: spine, ix: ix, member: make([]bool, ix.Len())}
	add := func(p int32) bool {
		if c.member[p] {
			return false
		}
		c.member[p] = true
		c.n++
		return true
	}
	var spinePos []int32
	for _, id := range spine.Vertices {
		p := ix.Pos(id)
		if p < 0 {
			if c.extra == nil {
				c.extra = make(map[dfl.ID]struct{})
			}
			if _, dup := c.extra[id]; !dup {
				c.extra[id] = struct{}{}
				c.n++
			}
			continue
		}
		add(p)
		spinePos = append(spinePos, p)
	}
	var legs, ext []int32
	for _, p := range spinePos {
		_, dsts := ix.Out(p)
		for _, d := range dsts {
			if add(d) {
				legs = append(legs, d)
			}
		}
		_, srcs := ix.In(p)
		for _, s := range srcs {
			if add(s) {
				legs = append(legs, s)
			}
		}
	}
	for _, lp := range legs {
		if ix.IDAt(lp).Kind != dfl.DataVertex {
			continue
		}
		_, srcs := ix.In(lp)
		for _, s := range srcs {
			if add(s) {
				ext = append(ext, s)
			}
		}
	}
	c.Legs = idsAt(ix, legs)
	c.Extended = idsAt(ix, ext)
	sortIDs(c.Legs)
	sortIDs(c.Extended)
	return c
}

type namedSpine struct {
	name  string
	spine Path
}

// handSpines derives malformed spines from a path of at least three
// vertices: one with a skipped vertex, a repeated vertex, an absent vertex,
// an empty one and the path reversed.
func handSpines(p Path) []namedSpine {
	v := p.Vertices
	ghost := dfl.TaskID("ghost-not-in-graph")
	rev := slices.Clone(v)
	slices.Reverse(rev)
	return []namedSpine{
		{"path", p},
		{"skipped", Path{Vertices: append([]dfl.ID{v[0]}, v[2:]...)}},
		{"repeated", Path{Vertices: append([]dfl.ID{v[0], v[1], v[1]}, v[2:]...)}},
		{"absent", Path{Vertices: append([]dfl.ID{v[0], ghost, v[1], ghost}, v[2:]...)}},
		{"empty", Path{}},
		{"reversed", Path{Vertices: rev}},
	}
}

// TestDFLCaterpillarMatchesPosReference checks that resolving spine vertices
// through the previous vertex's out-list builds the caterpillar a Pos search
// per vertex builds, field by field, on critical paths of the corpus graphs
// (overlay snapshots included) and on hand-built spines that leave the
// out-lists.
func TestDFLCaterpillarMatchesPosReference(t *testing.T) {
	checked := 0
	for _, c := range dfltest.Corpus(t) {
		if !c.G.IsDAG() {
			continue
		}
		for _, w := range []EdgeWeight{ByVolume, ByLatency} {
			paths, err := NearCriticalPaths(c.G, w, nil, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				spines := []namedSpine{{"path", p}}
				if len(p.Vertices) >= 3 {
					spines = handSpines(p)
				}
				for _, s := range spines {
					got, want := DFLCaterpillar(c.G, s.spine), referenceDFLCaterpillar(c.G, s.spine)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %s spine: caterpillar differs from the Pos reference:\n got legs %v ext %v size %d\nwant legs %v ext %v size %d",
							c.Name, s.name, got.Legs, got.Extended, got.Size(), want.Legs, want.Extended, want.Size())
					}
					checked++
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d caterpillars checked", checked)
	}
}

// referencePathEdges is PathEdges as it read the graph before the snapshot
// walk: one FindEdge lookup per step.
func referencePathEdges(g *dfl.Graph, p Path) []*dfl.Edge {
	var out []*dfl.Edge
	for i := 0; i+1 < len(p.Vertices); i++ {
		if e := g.FindEdge(p.Vertices[i], p.Vertices[i+1]); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// TestPathEdgesMatchesFindEdge checks the snapshot walk of PathEdges against
// a FindEdge per step, on the critical paths of the corpus graphs (overlay
// snapshots and duplicate edges included) and on hand-built paths that leave
// the out-lists.
func TestPathEdgesMatchesFindEdge(t *testing.T) {
	for _, c := range dfltest.Corpus(t) {
		if !c.G.IsDAG() {
			continue
		}
		for _, w := range []EdgeWeight{ByVolume, ByLatency} {
			paths, err := NearCriticalPaths(c.G, w, nil, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				spines := []namedSpine{{"path", p}}
				if len(p.Vertices) >= 3 {
					spines = handSpines(p)
				}
				for _, s := range spines {
					if got, want := PathEdges(c.G, s.spine), referencePathEdges(c.G, s.spine); !slices.Equal(got, want) {
						t.Fatalf("%s, %s path: PathEdges = %d edges, FindEdge reference %d (or different ones)",
							c.Name, s.name, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestSinkOrderMatchesIDStrings checks the sink ranking against the order it
// is defined by: heavier paths first, ties by ascending ID string. Sink IDs
// are distinct, so that order is unique. The graphs include many tied sinks
// of both kinds whose names interleave.
func TestSinkOrderMatchesIDStrings(t *testing.T) {
	graphs := dfltest.Corpus(t)
	tied := dfl.New()
	for _, name := range []string{"b", "a", "ab", "", "z", "a:b", "task", "data"} {
		tied.AddTask(name)
		tied.AddData(name + "x")
		tied.AddData(name)
	}
	if _, err := tied.AddEdge(dfl.TaskID("a"), dfl.DataID("q"), dfl.Producer, dfl.FlowProps{Volume: 1}); err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, dfltest.Graph{Name: "tied sinks", G: tied})
	for _, c := range graphs {
		for _, w := range []EdgeWeight{ByVolume, ZeroEdge} {
			dp, err := SolvePaths(c.G, w, nil)
			if err != nil {
				continue
			}
			for k := 1; k < len(dp.Sinks); k++ {
				a, b := dp.Sinks[k-1], dp.Sinks[k]
				da, db := dp.dist[a], dp.dist[b]
				if da < db || da == db && dp.Index.IDAt(a).String() >= dp.Index.IDAt(b).String() {
					t.Fatalf("%s: sinks %v (%g) and %v (%g) out of order",
						c.Name, dp.Index.IDAt(a), da, dp.Index.IDAt(b), db)
				}
			}
		}
	}
}
