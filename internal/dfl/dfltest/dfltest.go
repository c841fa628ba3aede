// Package dfltest builds DFL graphs for the tests and benchmarks of the
// analysis packages: a seeded layered DAG in the shape of dlbench's
// serve-mixed stream, and a corpus of graphs on which each optimised analysis
// must agree with its reference implementation.
package dfltest

import (
	"fmt"
	"math/rand"
	"testing"

	"datalife/internal/dfl"
	"datalife/internal/workflows"
)

// Shape of the layered DAG, after dlbench's serve-mixed workload.
const (
	layerWidth   = 100 // tasks per layer
	layerShared  = 16  // shared inputs any task may read
	layerWindow  = 2   // a read's producer lies in one of the previous layerWindow layers
	layerSharedP = 8   // one read in layerSharedP (after layer 0) goes to a shared input
	layerSlices  = 8   // a read covers one of layerSlices equal slices of its input
	layerBW      = 1 << 30
)

// Layered grows a seeded layered DAG one task at a time, as a live session's
// graph grows. Each task reads a slice of one to three distinct files, drawn
// from the shared inputs or the outputs of the previous two layers, computes,
// and writes one output. At 8,000 tasks it has the size and shape of
// serve-mixed's final per-session graph.
type Layered struct {
	G     *dfl.Graph
	rng   *rand.Rand
	tasks int
	sizes []uint64 // shared inputs first, then task i's output at layerShared+i
	names []string
}

// NewLayered returns the stream for seed with its shared inputs and no tasks.
func NewLayered(seed int64) *Layered {
	l := &Layered{G: dfl.New(), rng: rand.New(rand.NewSource(seed))}
	for s := 0; s < layerShared; s++ {
		l.names = append(l.names, fmt.Sprintf("in/shared-%02d.dat", s))
		l.sizes = append(l.sizes, 64<<20)
		l.G.AddData(l.names[s])
		l.G.SetDataProps(l.names[s], dfl.DataProps{Size: 64 << 20, Lifetime: 1e4})
	}
	return l
}

// Grow adds tasks until there are n.
func (l *Layered) Grow(n int) {
	g, r := l.G, l.rng
	for ; l.tasks < n; l.tasks++ {
		i, layer := l.tasks, l.tasks/layerWidth
		task := fmt.Sprintf("task-%06d", i)
		var read []int
		var readLat float64
		for k := 1 + r.Intn(3); len(read) < k; {
			f := r.Intn(layerShared)
			if layer > 0 && r.Intn(layerSharedP) != 0 {
				lo := max(0, layer-layerWindow) * layerWidth
				f = layerShared + lo + r.Intn(layer*layerWidth-lo)
			}
			if contains(read, f) {
				continue
			}
			read = append(read, f)
			vol := l.sizes[f] / layerSlices
			lat := float64(vol) / layerBW
			readLat += lat
			g.AddUncheckedEdge(dfl.DataID(l.names[f]), dfl.TaskID(task), dfl.Consumer, dfl.FlowProps{
				Volume: vol, Footprint: vol, Latency: lat, Ops: 1 + vol>>20,
				SmallDistFrac: float64(r.Intn(3)) / 2, ZeroDistFrac: float64(r.Intn(2)) / 2,
			})
		}
		size := uint64(1<<20) << r.Intn(4)
		out := fmt.Sprintf("out/%06d.dat", i)
		l.names = append(l.names, out)
		l.sizes = append(l.sizes, size)
		writeLat := float64(size) / layerBW
		g.AddUncheckedEdge(dfl.TaskID(task), dfl.DataID(out), dfl.Producer, dfl.FlowProps{
			Volume: size, Footprint: size, Latency: writeLat, Ops: 1 + size>>20,
		})
		compute := 1 + float64(r.Intn(32))/8
		g.SetTaskProps(task, dfl.TaskProps{Lifetime: compute + readLat + writeLat,
			ReadLatency: readLat, WriteLatency: writeLat})
		g.SetDataProps(out, dfl.DataProps{Size: int64(size), Lifetime: float64(100 * (1 + r.Intn(3)))})
	}
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// Perturb edits the graph, then appends to it. Edge and vertex property
// edits come first, and it derives their snapshot, a compaction. Then a new
// task hangs off the last vertex in topological order, reading it twice (a
// duplicate edge) and writing a new file: an append the next query derives
// in O(delta), as an overlay snapshot, and the only delta pending afterwards.
func (l *Layered) Perturb(tb testing.TB) {
	tb.Helper()
	g := l.G
	topo, err := g.TopoSort()
	if err != nil {
		tb.Fatal(err)
	}
	last := topo[len(topo)-1]
	if last.Kind != dfl.DataVertex {
		tb.Fatalf("dfltest: last vertex in topological order is %v, want a file", last)
	}
	for i := 0; i < 5; i++ {
		k := l.rng.Intn(l.tasks)
		task := dfl.TaskID(fmt.Sprintf("task-%06d", k))
		out := dfl.DataID(l.names[layerShared+k])
		p := g.FindEdge(task, out).Props
		p.Volume *= 3
		if !g.SetEdgeProps(task, out, p) {
			tb.Fatal("dfltest: SetEdgeProps missed an edge")
		}
		tp := g.Vertex(task).Task
		tp.Lifetime += 7
		g.SetTaskProps(task.Name, tp)
	}
	g.Index()
	tail := dfl.TaskID("tail")
	g.AddUncheckedEdge(last, tail, dfl.Consumer, dfl.FlowProps{Volume: 1 << 20, Latency: 1})
	g.AddUncheckedEdge(last, tail, dfl.Consumer, dfl.FlowProps{Volume: 1 << 21, Latency: 1})
	g.AddUncheckedEdge(tail, dfl.DataID("tail.out"), dfl.Producer, dfl.FlowProps{Volume: 1 << 22, Latency: 2})
	g.SetTaskProps(tail.Name, dfl.TaskProps{Lifetime: 9})
}

// Graph is one named corpus graph.
type Graph struct {
	Name string
	G    *dfl.Graph
}

// Corpus returns fresh copies of the equivalence corpus: the six builtin
// workflows as measured by a default run; layered streams cut at several
// points, each queried at earlier cuts on the way; perturbed layered graphs
// whose last snapshot is an O(delta) overlay over an edited base; and
// hand-built corner cases, two of them cyclic.
func Corpus(tb testing.TB) []Graph {
	tb.Helper()
	var out []Graph
	for _, b := range []struct {
		name string
		spec *workflows.Spec
	}{
		{"genomes", workflows.Genomes(workflows.DefaultGenomes())},
		{"ddmd", workflows.DDMD(workflows.DefaultDDMD(), 0)},
		{"belle2", workflows.Belle2(workflows.DefaultBelle2())},
		{"montage", workflows.Montage(workflows.DefaultMontage())},
		{"seismic", workflows.Seismic(workflows.DefaultSeismic())},
		{"random", workflows.Random(workflows.DefaultRandom(1))},
	} {
		g, _, err := workflows.RunAndCollect(b.spec, workflows.RunOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, Graph{b.name, g})
	}

	for _, cut := range []int{40, 250, 1200} {
		l := NewLayered(11)
		for _, at := range []int{10, cut / 2, cut} {
			l.Grow(at)
			l.G.Index()
		}
		out = append(out, Graph{fmt.Sprintf("layered-%d", cut), l.G})

		o := NewLayered(int64(cut))
		o.Grow(cut)
		o.Perturb(tb)
		fast := o.G.IndexStats().Fast
		if o.G.Index(); o.G.IndexStats().Fast == fast {
			tb.Fatalf("dfltest: layered-%d: perturbation did not take the O(delta) path", cut)
		}
		out = append(out, Graph{fmt.Sprintf("layered-%d-overlay", cut), o.G})
	}
	return append(out, cornerCases()...)
}

// cornerCases builds small graphs with duplicate edges, isolated vertices, a
// task that reads the file it writes, and a longer cycle.
func cornerCases() []Graph {
	dup := dfl.New()
	for i := 0; i < 30; i++ {
		tk, d := dfl.TaskID(fmt.Sprintf("t%02d", i)), dfl.DataID(fmt.Sprintf("d%02d", i))
		dup.AddUncheckedEdge(tk, d, dfl.Producer, dfl.FlowProps{Volume: uint64(100 + i), Latency: 1})
		dup.AddUncheckedEdge(tk, d, dfl.Producer, dfl.FlowProps{Volume: uint64(1000 - i), Latency: 3})
		if i > 0 {
			prev := dfl.DataID(fmt.Sprintf("d%02d", i-1))
			dup.AddUncheckedEdge(prev, tk, dfl.Consumer, dfl.FlowProps{Volume: 50, Footprint: 10})
			dup.AddUncheckedEdge(prev, tk, dfl.Consumer, dfl.FlowProps{Volume: 70, Footprint: 70})
		}
		dup.SetTaskProps(tk.Name, dfl.TaskProps{Lifetime: float64(i % 7)})
	}
	// A hub file on the critical path read twice by each of 20 tasks, in an
	// order that is neither sorted nor reversed, so listing its edges in
	// canonical order needs a real sort, and a sort that is not stable
	// reorders the duplicates.
	dup.AddUncheckedEdge(dfl.TaskID("t00"), dfl.DataID("hub"), dfl.Producer, dfl.FlowProps{Volume: 1 << 30})
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < 20; k++ {
			r := dfl.TaskID(fmt.Sprintf("r%02d", k*7%20))
			dup.AddUncheckedEdge(dfl.DataID("hub"), r, dfl.Consumer, dfl.FlowProps{Volume: uint64(10 + 100*pass + k)})
		}
	}
	dup.AddUncheckedEdge(dfl.TaskID("r07"), dfl.DataID("end"), dfl.Producer, dfl.FlowProps{Volume: 1 << 30})

	iso := pairs()
	iso.AddTask("lonely")
	iso.SetTaskProps("lonely", dfl.TaskProps{Lifetime: 3})
	iso.AddData("orphan")

	rw := pairs()
	rw.AddUncheckedEdge(dfl.DataID("mid-a"), dfl.TaskID("prod-a"), dfl.Consumer, dfl.FlowProps{Volume: 10})

	cyc := dfl.New()
	cyc.AddUncheckedEdge(dfl.TaskID("x"), dfl.DataID("f"), dfl.Producer, dfl.FlowProps{Volume: 5})
	cyc.AddUncheckedEdge(dfl.DataID("f"), dfl.TaskID("y"), dfl.Consumer, dfl.FlowProps{Volume: 5})
	cyc.AddUncheckedEdge(dfl.TaskID("y"), dfl.DataID("h"), dfl.Producer, dfl.FlowProps{Volume: 9})
	cyc.AddUncheckedEdge(dfl.DataID("h"), dfl.TaskID("x"), dfl.Consumer, dfl.FlowProps{Volume: 9})
	cyc.AddUncheckedEdge(dfl.DataID("h"), dfl.TaskID("z"), dfl.Consumer, dfl.FlowProps{Volume: 1})

	return []Graph{
		{"duplicate-edges", dup},
		{"isolated-vertices", iso},
		{"read-write-one-file", rw},
		{"cyclic", cyc},
	}
}

// pairs builds two producer→file→consumer chains and one input all four tasks
// read.
func pairs() *dfl.Graph {
	g := dfl.New()
	for i, c := range []string{"a", "b"} {
		vol := uint64(1000 * (i + 1))
		g.AddUncheckedEdge(dfl.TaskID("prod-"+c), dfl.DataID("mid-"+c), dfl.Producer, dfl.FlowProps{Volume: vol, Footprint: vol, Latency: 2})
		g.AddUncheckedEdge(dfl.DataID("mid-"+c), dfl.TaskID("cons-"+c), dfl.Consumer, dfl.FlowProps{Volume: vol, Footprint: vol, Latency: 1})
		g.SetTaskProps("prod-"+c, dfl.TaskProps{Lifetime: 10})
		g.SetTaskProps("cons-"+c, dfl.TaskProps{Lifetime: 10})
		g.SetDataProps("mid-"+c, dfl.DataProps{Size: int64(vol), Lifetime: 20})
	}
	for _, c := range []string{"prod-a", "cons-a", "prod-b", "cons-b"} {
		g.AddUncheckedEdge(dfl.DataID("shared-input"), dfl.TaskID(c), dfl.Consumer, dfl.FlowProps{Volume: 500, Footprint: 500})
	}
	return g
}
