package cpa

import (
	"fmt"
	"math/rand"
	"testing"

	"datalife/internal/dfl"
	"datalife/internal/dfl/dfltest"
)

// randomFanDAG builds a multi-sink DAG: a shared source fanning out into
// several producer→data→consumer chains of random depth and random volumes,
// so near-critical ranking is exercised across many sinks.
func randomFanDAG(t *testing.T, rng *rand.Rand, chains int) *dfl.Graph {
	t.Helper()
	g := dfl.New()
	src := g.AddTask("src")
	for c := 0; c < chains; c++ {
		prev := src.ID
		depth := 1 + rng.Intn(4)
		for d := 0; d < depth; d++ {
			data := dfl.DataID(fmt.Sprintf("c%02d-d%d", c, d))
			task := dfl.TaskID(fmt.Sprintf("c%02d-t%d", c, d))
			vol := uint64(1 + rng.Intn(1000))
			if _, err := g.AddEdge(prev, data, dfl.Producer, dfl.FlowProps{Volume: vol, Latency: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := g.AddEdge(data, task, dfl.Consumer, dfl.FlowProps{Volume: vol, Latency: 1}); err != nil {
				t.Fatal(err)
			}
			prev = task
		}
	}
	return g
}

func pathsEqual(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Weight != b[i].Weight || len(a[i].Vertices) != len(b[i].Vertices) {
			return false
		}
		for j := range a[i].Vertices {
			if a[i].Vertices[j] != b[i].Vertices[j] {
				return false
			}
		}
	}
	return true
}

// TestPathDPChainsMatchNearCriticalPaths checks the slot-level DP view: the
// predecessor chain from Sinks[i] is exactly NearCriticalPaths' path i, with
// its weight.
func TestPathDPChainsMatchNearCriticalPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomFanDAG(t, rng, 2+rng.Intn(8))
		want, err := NearCriticalPaths(g, ByVolume, nil, g.NumVertices())
		if err != nil {
			t.Fatal(err)
		}
		dp, err := SolvePaths(g, ByVolume, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Index != g.Index() {
			t.Fatalf("trial %d: view solved on a different snapshot", trial)
		}
		got := make([]Path, len(dp.Sinks))
		for i, s := range dp.Sinks {
			var chain []dfl.ID
			for cur := s; cur >= 0; cur = dp.Pred[cur] {
				chain = append([]dfl.ID{dp.Index.IDAt(cur)}, chain...)
			}
			got[i] = Path{Vertices: chain, Weight: dp.Path(i).Weight}
		}
		if !pathsEqual(got, want) {
			t.Fatalf("trial %d: sink chains differ from NearCriticalPaths", trial)
		}
	}
}

// TestSolvePathsCycleError checks the view surfaces the DAG requirement the
// same way NearCriticalPaths does.
func TestSolvePathsCycleError(t *testing.T) {
	g := cyclic()
	if dp, err := SolvePaths(g, ByVolume, nil); err == nil || dp != nil {
		t.Fatalf("SolvePaths on a cyclic graph = %v, %v; want nil and an error", dp, err)
	}
	if _, err := NearCriticalPaths(g, ByVolume, nil, 1); err == nil {
		t.Fatal("NearCriticalPaths: expected cycle error")
	}
}

// TestCriticalPathMatchesSolvePaths checks that CriticalPath, which picks the
// heaviest sink in one pass, returns SolvePaths' top-ranked path over the
// equivalence corpus: under the volume weight, with task time as the vertex
// weight, and under zero weights, where every sink ties and only the ID
// tie-break decides. On a cyclic graph both return the same error.
func TestCriticalPathMatchesSolvePaths(t *testing.T) {
	weights := []struct {
		name string
		ew   EdgeWeight
		vw   VertexWeight
	}{
		{"volume", ByVolume, nil},
		{"volume+task-time", ByVolume, ByTaskTime},
		{"task-time", nil, ByTaskTime},
		{"zero", ZeroEdge, ZeroVertex},
	}
	for _, c := range dfltest.Corpus(t) {
		for _, w := range weights {
			got, err := CriticalPath(c.G, w.ew, w.vw)
			dp, dpErr := SolvePaths(c.G, w.ew, w.vw)
			if (err == nil) != (dpErr == nil) || err != nil && err.Error() != dpErr.Error() {
				t.Fatalf("%s, %s: CriticalPath error %v, SolvePaths error %v", c.Name, w.name, err, dpErr)
			}
			if err != nil {
				continue
			}
			if want := dp.Path(0); !pathsEqual([]Path{got}, []Path{want}) {
				t.Fatalf("%s, %s: CriticalPath = %v (%g), SolvePaths' first path %v (%g)",
					c.Name, w.name, got.Vertices, got.Weight, want.Vertices, want.Weight)
			}
		}
	}
}
