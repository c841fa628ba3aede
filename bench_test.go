// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) at paper scale, plus ablations for the design choices DESIGN.md calls
// out (measurement overhead, sampling, analysis linearity).
//
// Each figure benchmark reports the paper-relevant headline as a custom
// metric (e.g. speedup-x), so `go test -bench . -benchmem` doubles as the
// reproduction harness. cmd/dflrun prints the full row-by-row reports.
package datalife

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"datalife/internal/advisor"
	"datalife/internal/analysis"
	"datalife/internal/blockstats"
	"datalife/internal/cache"
	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/dfl/dfltest"
	"datalife/internal/emulator"
	"datalife/internal/experiments"
	"datalife/internal/faults"
	"datalife/internal/iotrace"
	"datalife/internal/patterns"
	"datalife/internal/sankey"
	"datalife/internal/serve"
	"datalife/internal/sim"
	"datalife/internal/vfs"
	"datalife/internal/workflows"
)

// BenchmarkFig2_DFLDAGs measures and builds the five workflows' DFL-DAGs.
func BenchmarkFig2_DFLDAGs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dfls, err := experiments.Fig2(experiments.Paper)
		if err != nil {
			b.Fatal(err)
		}
		var v, e int
		for _, w := range dfls {
			v += w.Graph.NumVertices()
			e += w.Graph.NumEdges()
		}
		b.ReportMetric(float64(v), "vertices")
		b.ReportMetric(float64(e), "edges")
	}
}

// BenchmarkFig2f_Ranking ranks DDMD's producer-consumer relations by volume.
func BenchmarkFig2f_Ranking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ranked, err := experiments.Fig2f(experiments.Paper)
		if err != nil {
			b.Fatal(err)
		}
		if ranked[0].Consumer != dfl.TaskID("train#it0") {
			b.Fatalf("top relation = %v", ranked[0])
		}
	}
}

// BenchmarkFig3_Caterpillar builds the worked example with its caterpillar
// and opportunity analysis.
func BenchmarkFig3_Caterpillar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, cat, opps, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if cat.Size() == 0 || len(opps) == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkFig4_Caterpillars builds DFL caterpillars for all five workflows.
func BenchmarkFig4_Caterpillars(b *testing.B) {
	dfls, err := experiments.Fig2(experiments.Paper)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range dfls {
			cat := cpa.DFLCaterpillar(w.Graph, w.Critical)
			if cat.Size() == 0 {
				b.Fatal("empty caterpillar")
			}
		}
	}
}

// BenchmarkFig5_GenomesCaterpillar builds the chr1 branch/join caterpillar.
func BenchmarkFig5_GenomesCaterpillar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, cat, br, jn, err := experiments.Fig5(experiments.Paper)
		if err != nil {
			b.Fatal(err)
		}
		if cat.Size() == 0 {
			b.Fatal("empty caterpillar")
		}
		b.ReportMetric(float64(br), "branches")
		b.ReportMetric(float64(jn), "joins")
	}
}

// BenchmarkFig6_Genomes runs the six 1000 Genomes configurations and reports
// the overall speedup of the best configuration over the 15/bfs baseline
// (the paper reports 15x).
func BenchmarkFig6_Genomes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(experiments.Paper)
		if err != nil {
			b.Fatal(err)
		}
		best := rows[0].Speedup
		for _, r := range rows {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
		b.ReportMetric(best, "speedup-x")
	}
}

// BenchmarkFig7_DDMD runs the five DDMD pipeline configurations and reports
// the Shortened-vs-Original speedup (the paper reports up to 1.9x).
func BenchmarkFig7_DDMD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(experiments.Paper)
		if err != nil {
			b.Fatal(err)
		}
		// Same-tier comparison: Original/bfs vs Shortened/bfs.
		var orig, short float64
		for _, r := range rows {
			switch r.Config.Name {
			case "Original/bfs":
				orig = r.Makespan
			case "Shortened/bfs":
				short = r.Makespan
			}
		}
		b.ReportMetric(orig/short, "speedup-x")
	}
}

// BenchmarkFig8_Belle2 runs the caching comparison and the Table 3 scenario
// sweep; it reports the caching speedup (paper: 10x) and S4's improvement
// (paper: 67%).
func BenchmarkFig8_Belle2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Fig8(experiments.Paper)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.CachingSpeedup, "caching-x")
		b.ReportMetric(100*(1-d.Relative["S4"]), "S4-improvement-%")
	}
}

// BenchmarkTable1_Patterns runs the full opportunity census over the five
// workflows' DFL graphs.
func BenchmarkTable1_Patterns(b *testing.B) {
	dfls, err := experiments.Fig2(experiments.Paper)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		census := experiments.Table1(dfls)
		if len(census) != 5 {
			b.Fatal("census incomplete")
		}
	}
}

// BenchmarkTable3_ScenarioReplay replays one emulated scenario (S4).
func BenchmarkTable3_ScenarioReplay(b *testing.B) {
	p := workflows.DefaultBelle2()
	sc := emulator.Scenarios()[3]
	for i := 0; i < b.N; i++ {
		if _, err := emulator.RunScenario(p, sc, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4_CachePlanning measures the TAZeR cache's block planning
// throughput under the Table 4 configuration.
func BenchmarkTable4_CachePlanning(b *testing.B) {
	tz := cache.NewTAZeR()
	origin := vfs.NewWAN("wan", 125e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := fmt.Sprintf("t%d", i%240)
		node := fmt.Sprintf("n%d", i%10)
		path := fmt.Sprintf("mc/dataset-%03d", i%60)
		parts := tz.PlanRead(task, node, path, origin, int64(i%64)<<20, 8<<20)
		if len(parts) == 0 {
			b.Fatal("no parts")
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblation_MeasurementOverhead compares simulated workflow
// execution with and without the DataLife collector attached, validating the
// paper's "monitoring overhead is negligible" claim for the measurement
// design (constant-space histograms).
func BenchmarkAblation_MeasurementOverhead(b *testing.B) {
	spec := func() *workflows.Spec { return workflows.DDMD(workflows.DefaultDDMD(), 0) }
	b.Run("monitored", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := workflows.RunAndCollect(spec(), workflows.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("histogram-8-blocks", func(b *testing.B) {
		b.ReportAllocs()
		cfg := blockstats.Config{BlocksPerFile: 8, WriteBlockSize: 1 << 20}
		for i := 0; i < b.N; i++ {
			if _, _, err := workflows.RunAndCollect(spec(), workflows.RunOptions{Hist: cfg}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled-10pct", func(b *testing.B) {
		b.ReportAllocs()
		cfg := blockstats.DefaultConfig()
		cfg.SampleP, cfg.SampleT = 100, 10
		for i := 0; i < b.N; i++ {
			if _, _, err := workflows.RunAndCollect(spec(), workflows.RunOptions{Hist: cfg}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_CollectorThroughput measures raw collector ingest rate:
// accesses recorded per second into one constant-space histogram.
func BenchmarkAblation_CollectorThroughput(b *testing.B) {
	col := iotrace.MustCollector(blockstats.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*4096) % (1 << 30)
		col.RecordAccess("task", "file", 1<<30, blockstats.Read, off, 4096, float64(i), 1e-6)
	}
}

// BenchmarkAblation_CollectorParallel measures concurrent ingest on the
// record hot path as it exists after the sharding redesign: each goroutine
// resolves its flow once through the striped shard map (what Tracer.Open
// does) and then records through the cached *FlowStat pointer (what
// Handle.Read/Write do per access). The ownership rule — a FlowStat is only
// ever mutated by its owning task — is what makes the per-op path lock-free.
// The seed design instead took one global collector mutex on every access.
func BenchmarkAblation_CollectorParallel(b *testing.B) {
	col := iotrace.MustCollector(blockstats.DefaultConfig())
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := next.Add(1)
		fl := col.Flow(fmt.Sprintf("task-%02d", g), fmt.Sprintf("file-%02d", g), 1<<30)
		i := int64(0)
		for pb.Next() {
			off := (i * 4096) % (1 << 30)
			fl.RecordAccess(blockstats.Read, off, 4096, float64(i), 1e-6)
			i++
		}
	})
}

// BenchmarkAblation_AnalysisLinearity verifies the §5 claim that opportunity
// analysis is linear in vertices and edges: time per edge should stay flat
// as the graph grows 10x.
func BenchmarkAblation_AnalysisLinearity(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			g := dfl.New()
			for i := 0; i < n; i++ {
				task := dfl.TaskID(fmt.Sprintf("t%d", i))
				data := dfl.DataID(fmt.Sprintf("d%d", i))
				g.AddEdge(task, data, dfl.Producer, dfl.FlowProps{Volume: uint64(i + 1)})
				if i+1 < n {
					g.AddEdge(data, dfl.TaskID(fmt.Sprintf("t%d", i+1)), dfl.Consumer,
						dfl.FlowProps{Volume: uint64(i + 1)})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := cpa.CriticalPath(g, cpa.ByVolume, nil)
				if err != nil {
					b.Fatal(err)
				}
				cat := cpa.DFLCaterpillar(g, p)
				opps := patterns.Analyze(g, cat, patterns.Config{})
				_ = opps
			}
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
}

// BenchmarkAblation_SimEngine stresses the simulator's event core at 10^5
// task scale: a 100k-task chain (event-loop constants: heap ops, flow
// add/remove, repricing), a 100k-producer fan-in (huge ready queue, many
// concurrent flows sharing one tier), and a seeded faulty random DAG sweep
// (crash recovery, retries, fault-window repricing). No collector or tracer
// is attached, so the numbers isolate the engine.
func BenchmarkAblation_SimEngine(b *testing.B) {
	b.Run("chain-100k", func(b *testing.B) {
		b.ReportAllocs()
		spec := workflows.Chain(workflows.DefaultChainParams(100_000))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := workflows.RunBare(spec, workflows.StressOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Makespan, "sim-seconds")
		}
	})
	b.Run("chain-100k-linked", func(b *testing.B) {
		// Same 100k-task chain, but every flow now routes over one
		// finite-bandwidth link (nfs placed across a backbone from the
		// nodes), isolating the network model's cost on the event core:
		// per-flow route lookup, link fair-share repricing, latency
		// charging.
		b.ReportAllocs()
		spec := workflows.Chain(workflows.DefaultChainParams(100_000))
		tp := &sim.Topology{
			Links:      []*sim.Link{{Name: "backbone", A: "edge", B: "hub", BWAB: 10e9, BWBA: 10e9, LatencyS: 1e-4}},
			TierLoc:    map[string]string{"nfs": "hub"},
			DefaultLoc: "edge",
			Seed:       1,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := workflows.RunBare(spec, workflows.StressOptions{Topology: tp})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Makespan, "sim-seconds")
		}
	})
	b.Run("fan-in-100k", func(b *testing.B) {
		b.ReportAllocs()
		spec := workflows.FanIn(workflows.DefaultFanInParams(100_000))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := workflows.RunBare(spec, workflows.StressOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Makespan, "sim-seconds")
		}
	})
	b.Run("faulty-sweep", func(b *testing.B) {
		b.ReportAllocs()
		spec := workflows.StressRandom(workflows.DefaultStressRandomParams(10_000, 7))
		sched, err := faults.ParseSpec("crash=node2@900;ioerr=nfs:0.002;slow=beegfs@300-1200x0.5")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for seed := uint64(1); seed <= 4; seed++ {
				res, err := workflows.RunBare(spec, workflows.StressOptions{Faults: sched.WithSeed(seed)})
				if err != nil {
					b.Fatal(err)
				}
				if res.Makespan <= 0 {
					b.Fatal("empty result")
				}
			}
		}
	})
}

// BenchmarkAblation_SankeyRender renders the DDMD template Sankey to SVG.
func BenchmarkAblation_SankeyRender(b *testing.B) {
	g, _, err := workflows.RunAndCollect(workflows.DDMD(workflows.DefaultDDMD(), 0),
		workflows.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sankey.SVG(g, sankey.Options{Title: "ddmd"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_WriteBuffering quantifies the Table 1 "write buffering"
// remediation on a checkpointing workload — the pattern it targets: each
// iteration computes and then writes a checkpoint, so buffered flushes
// overlap the next compute phase instead of blocking it.
func BenchmarkAblation_WriteBuffering(b *testing.B) {
	run := func(async bool) float64 {
		var script []sim.Op
		for it := 0; it < 10; it++ {
			script = append(script,
				sim.Compute(2),
				sim.Write(fmt.Sprintf("ckpt-%d.dat", it), 400<<20, 8<<20))
		}
		fs := vfs.New()
		cl, err := sim.BuildCluster(fs, sim.ClusterSpec{
			Name: "c", Nodes: 1, Cores: 4, DefaultTier: "nfs",
			Shared: []*vfs.Tier{vfs.NewNFS("nfs")},
		})
		if err != nil {
			b.Fatal(err)
		}
		eng := &sim.Engine{FS: fs, Cluster: cl}
		res, err := eng.Run(&sim.Workload{Tasks: []*sim.Task{
			{Name: "solver", AsyncWrites: async, Script: script},
		}})
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sync := run(false)
		buffered := run(true)
		b.ReportMetric(sync/buffered, "speedup-x")
	}
}

// BenchmarkAblation_Advisor measures the automated placement advisor on the
// measured 1000 Genomes DFL: thread extraction, balancing, and placement.
func BenchmarkAblation_Advisor(b *testing.B) {
	p := workflows.DefaultGenomes()
	g, _, err := workflows.RunAndCollect(workflows.Genomes(p), workflows.RunOptions{Nodes: 10, Cores: 24})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := advisor.Advise(g, advisor.Config{Nodes: 10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*plan.LocalityScore(g), "locality-%")
	}
}

// BenchmarkAblation_AdvisorLayered measures one advisor query on a graph of
// serve-mixed's shape and size: the 8,000-task layered DAG (100-task layers,
// 16 shared inputs, reads from the previous two layers; 16,016 vertices),
// built directly with dfl. One op is Advise + Report + LocalityScore, what
// serve's advisor query computes. On this shape the ranked near-critical
// paths overlap heavily, which is what thread extraction must stay linear in.
func BenchmarkAblation_AdvisorLayered(b *testing.B) {
	l := dfltest.NewLayered(1)
	l.Grow(8000)
	g := l.G
	g.Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := advisor.Advise(g, advisor.Config{})
		if err != nil {
			b.Fatal(err)
		}
		_ = plan.Report(20)
		_ = plan.LocalityScore(g)
	}
}

// BenchmarkAblation_PatternsLayered measures one patterns query on
// AdvisorLayered's graph: what serve's patterns query computes, the critical
// path by volume, its DFL caterpillar, the caterpillar-scoped Table 1
// detectors with their ranking, and the top-ten report.
func BenchmarkAblation_PatternsLayered(b *testing.B) {
	l := dfltest.NewLayered(1)
	l.Grow(8000)
	g := l.G
	g.Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, err := cpa.CriticalPath(g, cpa.ByVolume, nil)
		if err != nil {
			b.Fatal(err)
		}
		opps := patterns.Analyze(g, cpa.DFLCaterpillar(g, path), patterns.Config{})
		_ = patterns.Report("opportunities on the caterpillar (ranked):", opps, 10)
	}
}

// BenchmarkAblation_AdvisorParallel measures the advisor's two re-planning
// accelerations: concurrent plan computation over one shared finished graph
// (the indexed snapshot is built once and read by every goroutine), and
// memoized re-analysis keyed by the graph's content hash — the fault-sweep
// path, where seeds producing identical measured DFLs skip analysis entirely.
func BenchmarkAblation_AdvisorParallel(b *testing.B) {
	p := workflows.DefaultGenomes()
	g, _, err := workflows.RunAndCollect(workflows.Genomes(p), workflows.RunOptions{Nodes: 10, Cores: 24})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("concurrent", func(b *testing.B) {
		b.ReportAllocs()
		g.Index() // warm the shared snapshot outside the timer
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := advisor.Advise(g, advisor.Config{Nodes: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		memo := advisor.NewMemo()
		if _, _, err := memo.Plan(g, advisor.Config{Nodes: 10}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := memo.Plan(g, advisor.Config{Nodes: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_StdioBuffering contrasts collector load between raw
// descriptor reads and stdio-buffered reads of the same logical volume.
func BenchmarkAblation_StdioBuffering(b *testing.B) {
	setup := func() (*iotrace.Tracer, *iotrace.Collector) {
		fs := vfs.New()
		if err := fs.AddTier(vfs.NewNFS("nfs")); err != nil {
			b.Fatal(err)
		}
		col := iotrace.MustCollector(blockstats.DefaultConfig())
		tr := iotrace.NewTracer("t", fs, &iotrace.ManualClock{}, iotrace.ZeroCost{}, col, "nfs")
		h, err := tr.Open("f", iotrace.WRONLY|iotrace.CREATE)
		if err != nil {
			b.Fatal(err)
		}
		h.Write(1 << 22)
		h.Close()
		return tr, col
	}
	b.Run("raw-4k-reads", func(b *testing.B) {
		b.ReportAllocs()
		tr, _ := setup()
		for i := 0; i < b.N; i++ {
			h, _ := tr.Open("f", iotrace.RDONLY)
			for {
				if _, err := h.Read(4096); err != nil {
					break
				}
			}
			h.Close()
		}
	})
	b.Run("stdio-64k-buffer", func(b *testing.B) {
		b.ReportAllocs()
		tr, _ := setup()
		for i := 0; i < b.N; i++ {
			s, _ := tr.FOpen("f", "r")
			for {
				if _, err := s.Read(4096); err != nil {
					break
				}
			}
			s.Close()
		}
	})
}

// BenchmarkAblation_Prefetch quantifies Table 1's "block prefetching"
// remediation: a chunked sequential WAN reader with and without readahead.
func BenchmarkAblation_Prefetch(b *testing.B) {
	run := func(readahead int) float64 {
		fs := vfs.New()
		cl, err := sim.BuildCluster(fs, sim.ClusterSpec{
			Name: "c", Nodes: 1, Cores: 4, DefaultTier: "wan",
			Shared: []*vfs.Tier{vfs.NewWAN("wan", 125e6)},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fs.CreateSized("remote.dat", "wan", 512<<20); err != nil {
			b.Fatal(err)
		}
		c := cache.NewTAZeR()
		c.SetReadahead(readahead)
		var script []sim.Op
		for off := int64(0); off < 512<<20; off += 1 << 20 {
			script = append(script, sim.ReadAt("remote.dat", off, 1<<20, 1<<20))
		}
		eng := &sim.Engine{FS: fs, Cluster: cl, Planner: c}
		res, err := eng.Run(&sim.Workload{Tasks: []*sim.Task{{Name: "r", Script: script}}})
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		without := run(0)
		with := run(16)
		b.ReportMetric(without/with, "speedup-x")
	}
}

// BenchmarkAblation_TraceEmulation runs the trace-based Table 3 sweep
// (capture once, adjust, replay) at a moderate campaign size.
func BenchmarkAblation_TraceEmulation(b *testing.B) {
	p := workflows.DefaultBelle2()
	p.Tasks, p.DatasetsPerTask, p.PoolDatasets = 48, 8, 24
	p.DatasetBytes = 256 << 20
	p.ComputePerDataset = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := emulator.TraceSweep(p, 4)
		if err != nil {
			b.Fatal(err)
		}
		s1, s6 := results[0].Makespan, results[5].Makespan
		b.ReportMetric(s1/s6, "S6-speedup-x")
	}
}

// BenchmarkAblation_SavedStateLoad measures the analyze-later path's first
// step: iotrace.LoadJSON over an in-memory SaveJSON document, the Belle II
// MC campaign at its default size (240 tasks, 4,080 flows, ≈2.5 MB).
// b.SetBytes reports the decode rate in MB/s.
func BenchmarkAblation_SavedStateLoad(b *testing.B) {
	col, _, err := workflows.RunCollector(workflows.Belle2(workflows.DefaultBelle2()), workflows.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := col.SaveJSON(&doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := iotrace.LoadJSON(bytes.NewReader(doc.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		loadedFlows = len(st.Flows)
	}
}

// loadedFlows keeps BenchmarkAblation_SavedStateLoad's result live.
var loadedFlows int

// BenchmarkAblation_DetvetWholeRepo runs the full dflvet suite — all ten
// analyzers plus the cross-package facts layer — over every package of the
// repository, the static counterpart of the golden-hash determinism gates.
// The 10s guard keeps the facts pass cheap enough to run on every CI push;
// a slower run fails the benchmark rather than silently eating CI budget.
func BenchmarkAblation_DetvetWholeRepo(b *testing.B) {
	root, err := analysis.FindModuleRoot("")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		diags, err := analysis.Vet(root, []string{"./..."}, analysis.All())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repository not clean: %d findings, e.g. %s", len(diags), diags[0])
		}
		if d := time.Since(start); d > 10*time.Second {
			b.Fatalf("whole-repo dflvet took %v, budget is 10s", d)
		}
	}
}

// buildPairChain constructs a DFL producer/consumer chain of n task→data
// pairs and returns the graph together with the chain tail (the anchored
// frontier a streaming workload appends to).
func buildPairChain(n int) (*dfl.Graph, dfl.ID) {
	g := dfl.New()
	tail := dfl.TaskID("t0")
	g.AddTask("t0")
	for i := 0; i < n; i++ {
		data := dfl.DataID(fmt.Sprintf("d%d", i))
		g.AddEdge(tail, data, dfl.Producer, dfl.FlowProps{Volume: uint64(i + 1), Latency: 1})
		tail = data
		if i+1 < n {
			task := dfl.TaskID(fmt.Sprintf("t%d", i+1))
			g.AddEdge(tail, task, dfl.Consumer, dfl.FlowProps{Volume: uint64(i + 1), Latency: 1})
			tail = task
		}
	}
	return g, tail
}

// appendFrontier grows the chain by one vertex + one edge at the tail and
// returns the new tail — the O(delta) shape a live collector produces.
func appendFrontier(g *dfl.Graph, tail dfl.ID, i int) dfl.ID {
	if tail.Kind == dfl.TaskVertex {
		next := dfl.DataID(fmt.Sprintf("live-d%d", i))
		g.AddEdge(tail, next, dfl.Producer, dfl.FlowProps{Volume: 64, Latency: 1})
		return next
	}
	next := dfl.TaskID(fmt.Sprintf("live-t%d", i))
	g.AddEdge(tail, next, dfl.Consumer, dfl.FlowProps{Volume: 64, Latency: 1})
	return next
}

// BenchmarkAblation_IncrementalIndex quantifies the copy-on-write snapshot
// path against invalidate-and-rebuild for live analysis under streaming
// mutation (DESIGN.md "Incremental index").
//
// append-query-100k:        one frontier append, then topo + fingerprint
//
//	re-query, served by the O(delta) derivation.
//
// append-query-rebuild-100k: the same op with Invalidate() forced before the
//
//	queries — the seed's rebuild cost at every step.
//
// streaming-build-N:        a full cold build with a topo + fingerprint query
//
//	after every single append; near-linear total time
//	demonstrates the geometric compaction schedule.
func BenchmarkAblation_IncrementalIndex(b *testing.B) {
	const chainN = 50_000 // 100k vertices: 50k task→data pairs

	b.Run("append-query-100k", func(b *testing.B) {
		// Every appendPeriod appends start over from a fresh 100k-vertex
		// chain, built outside the timer, so the graph an op grows and the
		// derivations it pays do not depend on b.N. A period's overlay stays
		// under the extras bound, max(64, base vertices), so no period
		// compacts; compaction is timed by append-query-rebuild-100k and
		// streaming-build-*.
		const appendPeriod = 50_000
		b.ReportAllocs()
		var (
			g         *dfl.Graph
			tail      dfl.ID
			fast, cmp int
		)
		for i := 0; i < b.N; i++ {
			if i%appendPeriod == 0 {
				b.StopTimer()
				if g != nil {
					fast, cmp = fast+g.IndexStats().Fast, cmp+g.IndexStats().Compactions
				}
				g, tail = buildPairChain(chainN)
				if _, err := g.TopoSort(); err != nil {
					b.Fatal(err)
				}
				g.Fingerprint() // warm the sums so derivations carry them in O(delta)
				b.StartTimer()
			}
			tail = appendFrontier(g, tail, i)
			if _, err := g.TopoSort(); err != nil {
				b.Fatal(err)
			}
			_ = g.Fingerprint()
		}
		b.StopTimer()
		st := g.IndexStats()
		b.ReportMetric(float64(fast+st.Fast), "fast-derivations")
		b.ReportMetric(float64(cmp+st.Compactions), "compactions")
	})

	b.Run("append-query-rebuild-100k", func(b *testing.B) {
		b.ReportAllocs()
		g, tail := buildPairChain(chainN)
		if _, err := g.TopoSort(); err != nil {
			b.Fatal(err)
		}
		g.Fingerprint()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tail = appendFrontier(g, tail, i)
			g.Invalidate() // force the full rebuild the seed paid every time
			if _, err := g.TopoSort(); err != nil {
				b.Fatal(err)
			}
			_ = g.Fingerprint()
		}
	})

	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("streaming-build-%d", 2*n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := dfl.New()
				g.AddTask("t0")
				tail := dfl.TaskID("t0")
				for j := 0; 2*j < 2*n; j++ {
					tail = appendFrontier(g, tail, j)
					if _, err := g.TopoSort(); err != nil {
						b.Fatal(err)
					}
					_ = g.Fingerprint()
				}
				st := g.IndexStats()
				if st.Fast < st.Derivations*9/10 {
					b.Fatalf("streaming build fell off the fast path: %+v", st)
				}
			}
			b.ReportMetric(float64(2*n), "vertices")
		})
	}
}

// BenchmarkAblation_ServeIngest measures the streaming service's durable
// ingest pipeline over loopback TCP: one op is a 64-event batch traveling
// wire-encode → CRC frame → decode → journal append → apply → ack. NoSync
// isolates the pipeline from fsync latency so the row tracks coordination
// cost, not the disk; crash consistency itself is covered by the serve tests
// and the serve smoke script.
func BenchmarkAblation_ServeIngest(b *testing.B) {
	srv, err := serve.NewServer(serve.Config{
		Dir: b.TempDir(), NoSync: true, QueueDepth: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := serve.Dial(serve.ClientConfig{Addr: ln.Addr().String(), Session: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const batch = 64
	events := serve.ChainEvents(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * batch) % (len(events) - batch)
		if err := c.Send(events[off : off+batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(batch, "events/op")
}
