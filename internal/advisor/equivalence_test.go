package advisor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"datalife/internal/dfl"
	"datalife/internal/dfl/dfltest"
)

var equivalenceConfigs = []Config{
	{Nodes: 1}, {Nodes: 3}, {Nodes: 10},
	{Nodes: 1, CrashesPerHour: 2}, {Nodes: 3, CrashesPerHour: 2}, {Nodes: 10, CrashesPerHour: 0.5},
}

// checkAdviseMatchesReference compares the production advisor with the
// reference on one graph and config: the whole Plan, ExtractThreads, and
// LocalityScore to the bit.
func checkAdviseMatchesReference(t *testing.T, name string, g *dfl.Graph, cfg Config) {
	t.Helper()
	got, err := Advise(g, cfg)
	want, wantErr := referenceAdvise(g, cfg)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s %+v: Advise error %v, reference error %v", name, cfg, err, wantErr)
	}
	if err == nil {
		if !reflect.DeepEqual(got.Threads, want.Threads) {
			t.Fatalf("%s %+v: threads differ:\n got %+v\nwant %+v", name, cfg, got.Threads, want.Threads)
		}
		if !reflect.DeepEqual(got.Placements, want.Placements) {
			t.Fatalf("%s %+v: placements differ", name, cfg)
		}
		if !reflect.DeepEqual(got.Opportunities, want.Opportunities) {
			t.Fatalf("%s %+v: opportunities differ", name, cfg)
		}
	} else {
		// A cyclic graph, which Advise rejects: compare placement on the
		// singleton threads both extractions fall back to.
		cfg = cfg.withDefaults()
		threads, threadOf, ix := extractThreads(g)
		BalanceThreads(threads, cfg.Nodes)
		refThreads := referenceExtractThreads(g)
		BalanceThreads(refThreads, cfg.Nodes)
		refThreadOf := make(map[dfl.ID]int)
		for _, th := range refThreads {
			for _, tk := range th.Tasks {
				refThreadOf[tk] = th.ID
			}
		}
		got = &Plan{Placements: placeFiles(ix, cfg, threads, threadOf)}
		want = &Plan{Placements: referencePlaceFiles(g, cfg, refThreads, refThreadOf)}
		if !reflect.DeepEqual(got.Placements, want.Placements) {
			t.Fatalf("%s %+v: placements on a cyclic graph differ", name, cfg)
		}
	}
	if a, b := got.LocalityScore(g), referenceLocalityScore(want, g); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s %+v: LocalityScore %v, reference %v", name, cfg, a, b)
	}
	if a, b := ExtractThreads(g), referenceExtractThreads(g); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: ExtractThreads differs from the reference", name)
	}
}

func TestAdviseMatchesReference(t *testing.T) {
	for _, c := range dfltest.Corpus(t) {
		for _, cfg := range equivalenceConfigs {
			checkAdviseMatchesReference(t, c.Name, c.G, cfg)
		}
	}
}

// fuzzGraph builds a small DAG from a seed. Tasks read shared inputs or
// earlier outputs, and write new files or files no task has read yet (so a
// file may have several producers and the graph stays acyclic). Picking a file
// twice duplicates an edge, some tasks and one file stay isolated, and the
// graph is snapshotted part way and edited after, so the final query may read
// an overlay snapshot.
func fuzzGraph(seed int64, tasks, shared uint8) *dfl.Graph {
	r := rand.New(rand.NewSource(seed))
	g := dfl.New()
	n, s := 1+int(tasks%48), 1+int(shared%6)
	type file struct {
		id   dfl.ID
		read bool
	}
	var files []file
	for i := 0; i < s; i++ {
		files = append(files, file{id: dfl.DataID(fmt.Sprintf("in%d", i))})
		g.AddData(files[i].id.Name).Data.Lifetime = float64(r.Intn(50))
	}
	for i := 0; i < n; i++ {
		if i == 2*n/3 {
			g.Index()
		}
		tk := dfl.TaskID(fmt.Sprintf("t%03d", i))
		if r.Intn(7) == 0 {
			g.AddTask(tk.Name)
			continue
		}
		for k := r.Intn(4); k > 0; k-- {
			f := &files[r.Intn(len(files))]
			f.read = true
			vol := uint64(r.Intn(1 << 12))
			g.AddUncheckedEdge(f.id, tk, dfl.Consumer, dfl.FlowProps{Volume: vol, Footprint: vol / 2, Latency: float64(r.Intn(9))})
		}
		for k := 1 + r.Intn(2); k > 0; k-- {
			j := r.Intn(len(files))
			if r.Intn(4) != 0 || files[j].read {
				j = len(files)
				files = append(files, file{id: dfl.DataID(fmt.Sprintf("o%03d-%d", i, k))})
			}
			g.AddUncheckedEdge(tk, files[j].id, dfl.Producer, dfl.FlowProps{Volume: uint64(r.Intn(1 << 12)), Latency: float64(r.Intn(5))})
		}
		g.SetTaskProps(tk.Name, dfl.TaskProps{Lifetime: float64(r.Intn(20)), ReadLatency: float64(r.Intn(3))})
	}
	g.AddData("lost")
	if es := g.Edges(); r.Intn(2) == 0 && len(es) > 0 {
		e := es[r.Intn(len(es))]
		p := e.Props
		p.Volume += 1 << 13
		g.SetEdgeProps(e.Src, e.Dst, p)
	}
	return g
}

func FuzzAdviseMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(8+5*seed), uint8(seed), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, tasks, shared, cfgIdx uint8) {
		g := fuzzGraph(seed, tasks, shared)
		cfg := equivalenceConfigs[int(cfgIdx)%len(equivalenceConfigs)]
		checkAdviseMatchesReference(t, fmt.Sprintf("fuzz(%d,%d,%d)", seed, tasks, shared), g, cfg)
	})
}
