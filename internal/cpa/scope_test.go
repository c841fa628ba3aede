package cpa

import (
	"slices"
	"testing"

	"datalife/internal/dfl"
	"datalife/internal/dfl/dfltest"
)

// referenceScope is the whole-graph scan Scope replaces: g's canonical lists
// filtered by Contains.
func referenceScope(g *dfl.Graph, c *Caterpillar) (tasks, data []*dfl.Vertex, edges []*dfl.Edge) {
	for _, v := range g.Tasks() {
		if c.Contains(v.ID) {
			tasks = append(tasks, v)
		}
	}
	for _, v := range g.DataFiles() {
		if c.Contains(v.ID) {
			data = append(data, v)
		}
	}
	for _, e := range g.Edges() {
		if c.Contains(e.Src) && c.Contains(e.Dst) {
			edges = append(edges, e)
		}
	}
	return tasks, data, edges
}

// checkScope compares Scope with the reference by identity: the same
// vertices and edges in the same order, duplicate edges included.
func checkScope(t *testing.T, name string, g *dfl.Graph, c *Caterpillar) {
	t.Helper()
	ix, taskSlots, dataSlots, edges := c.Scope(g)
	verticesAt := func(slots []int32) []*dfl.Vertex {
		var vs []*dfl.Vertex
		for _, p := range slots {
			vs = append(vs, ix.VertexAt(p))
		}
		return vs
	}
	tasks, data := verticesAt(taskSlots), verticesAt(dataSlots)
	wantT, wantD, wantE := referenceScope(g, c)
	if !slices.Equal(tasks, wantT) || !slices.Equal(data, wantD) || !slices.Equal(edges, wantE) {
		t.Fatalf("%s: Scope = %d tasks, %d files, %d edges; reference %d, %d, %d (or a different order)",
			name, len(tasks), len(data), len(edges), len(wantT), len(wantD), len(wantE))
	}
}

func scopeSpines(t *testing.T, g *dfl.Graph) []Path {
	t.Helper()
	var out []Path
	for _, w := range []EdgeWeight{ByVolume, ByLatency} {
		ps, err := NearCriticalPaths(g, w, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ps...)
	}
	return out
}

func TestScopeMatchesFilteredGraph(t *testing.T) {
	for _, c := range dfltest.Corpus(t) {
		if !c.G.IsDAG() {
			continue
		}
		for _, p := range scopeSpines(t, c.G) {
			checkScope(t, c.Name, c.G, DFLCaterpillar(c.G, p))
		}
	}
	// A spine vertex absent from the graph is a member no list shows.
	g := diamond(t)
	spine := Path{Vertices: []dfl.ID{dfl.TaskID("ghost"), dfl.DataID("a.dat"), dfl.TaskID("mid1")}}
	checkScope(t, "ghost spine", g, DFLCaterpillar(g, spine))
}

// TestScopeOnStaleCaterpillar edits the graph after building caterpillars:
// Scope must list the graph as it is now, not the caterpillar's snapshot.
func TestScopeOnStaleCaterpillar(t *testing.T) {
	for _, cut := range []int{60, 400} {
		l := dfltest.NewLayered(int64(cut))
		l.Grow(cut)
		var cats []*Caterpillar
		for _, p := range scopeSpines(t, l.G) {
			cats = append(cats, DFLCaterpillar(l.G, p))
		}
		l.Perturb(t)
		for _, c := range cats {
			checkScope(t, "stale", l.G, c)
		}
	}
}
