package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"

	"datalife/internal/advisor"
	"datalife/internal/blockstats"
	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/iotrace"
	"datalife/internal/patterns"
	"datalife/internal/workflows"
)

// Batch workload sizes.
const (
	// collectNodes × collectCores is the Fig. 2 Belle II cluster; the
	// advisor places threads on the same nodes.
	collectNodes, collectCores = 10, 24
	// analyzeTasks sizes batch-analyze's saved DAG (≈6k vertices).
	analyzeTasks = 3000
	// batchMinIters keeps a measured phase long enough for a p90 with ten
	// samples beyond it.
	batchMinIters = 100
	reportTop     = 10
)

// pipeOut is one pipeline's digest and counts. The digest covers the graph
// fingerprint and every rendered report, so any change in an output shows.
type pipeOut struct {
	digest                                string
	flows, vertices, edges, opps, threads int
}

// pipeline runs one whole pipeline, recording spans under parent.
type pipeline func(tr *tracer, parent, req int64) (pipeOut, error)

// batchBench is one batch workload: setup builds its inputs and returns the
// pipeline to measure; bare (optional) is the uninstrumented baseline timed
// beside each traced pipeline; crossCheck verifies the saved-state path.
type batchBench struct {
	setup      func() (pipeline, error)
	bare       func() error
	crossCheck func() error
}

// step times one call into a layer as a child span.
func step(tr *tracer, name string, parent, req int64, f func() error) error {
	id := tr.begin(name, parent, req)
	err := f()
	tr.end(id)
	return err
}

// analyze runs the analysis half shared by both batch paths: critical path
// and caterpillar, bottlenecks, Table 1 patterns with benefits and ranking,
// the placement advisor, and the reports `datalife -advise` prints.
func analyze(tr *tracer, parent, req int64, g *dfl.Graph, out *pipeOut) error {
	var path cpa.Path
	var cat *cpa.Caterpillar
	var opps []patterns.Opportunity
	var benefits []patterns.Benefit
	var ranking []patterns.Entity
	var plan *advisor.Plan
	taskKind := dfl.TaskVertex
	steps := []struct {
		name string
		f    func() error
	}{
		{"cpa.critical_path", func() (err error) {
			path, err = cpa.CriticalPath(g, cpa.ByVolume, nil)
			return err
		}},
		{"cpa.caterpillar", func() error { cat = cpa.DFLCaterpillar(g, path); return nil }},
		{"cpa.bottlenecks", func() error {
			_, err := cpa.Bottlenecks(g, cpa.ByVolume, cpa.ByTaskTime, 5, &taskKind)
			return err
		}},
		{"patterns.analyze", func() error { opps = patterns.Analyze(g, cat, patterns.Config{}); return nil }},
		{"patterns.benefits", func() error {
			benefits = patterns.EstimateBenefits(g, opps, patterns.DefaultEnvelope())
			return nil
		}},
		{"patterns.rank", func() error { ranking = patterns.RankProducerConsumerByVolume(g); return nil }},
		{"advisor.advise", func() (err error) {
			plan, err = advisor.Advise(g, advisor.Config{Nodes: collectNodes})
			return err
		}},
		{"report.render", func() error {
			h := sha256.New()
			fmt.Fprintf(h, "fingerprint %#016x\n%s\n%s\n%s\n%s\nlocality %.9f\n", g.Fingerprint(),
				patterns.Report("opportunities on the caterpillar (ranked):", opps, reportTop),
				patterns.BenefitReport(benefits, reportTop),
				patterns.Table("producer-consumer relations by volume:", ranking, reportTop),
				plan.Report(reportTop), plan.LocalityScore(g))
			out.digest = fmt.Sprintf("%x", h.Sum(nil))
			return nil
		}},
	}
	for _, s := range steps {
		if err := step(tr, s.name, parent, req, s.f); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	out.vertices, out.edges = g.NumVertices(), g.NumEdges()
	out.opps, out.threads = len(opps), len(plan.Threads)
	return nil
}

// belle2Params is the Fig. 2 Belle II Monte Carlo campaign with 256 MiB
// datasets; size > 0 shrinks it to that many tasks and pool datasets.
func belle2Params(seed uint64, size int) workflows.Belle2Params {
	p := workflows.DefaultBelle2()
	p.DatasetBytes = 256 << 20
	p.Seed = seed
	if size > 0 {
		p.Tasks, p.PoolDatasets = size, size
		p.DatasetsPerTask = min(p.DatasetsPerTask, size)
	}
	return p
}

// batchCollect is the `datalife -advise` path: simulate the monitored
// workflow, then build and analyze its lifecycle graph.
func batchCollect(cfg runConfig) batchBench {
	p := belle2Params(cfg.seed, cfg.size)
	opts := workflows.RunOptions{Nodes: collectNodes, Cores: collectCores}
	pipe := func(tr *tracer, parent, req int64) (pipeOut, error) {
		var spec *workflows.Spec
		var col *iotrace.Collector
		var g *dfl.Graph
		_ = step(tr, "workflows.belle2", parent, req, func() error { spec = workflows.Belle2(p); return nil })
		if err := step(tr, "workflows.run_collector", parent, req, func() (err error) {
			col, _, err = workflows.RunCollector(spec, opts)
			return err
		}); err != nil {
			return pipeOut{}, err
		}
		_ = step(tr, "dfl.build", parent, req, func() error { g = dfl.Build(col); return nil })
		out := pipeOut{flows: col.NumFlows()}
		return out, analyze(tr, parent, req, g, &out)
	}
	return batchBench{
		setup: func() (pipeline, error) { return pipe, nil },
		bare: func() error {
			_, err := workflows.RunBare(workflows.Belle2(p),
				workflows.StressOptions{Nodes: collectNodes, Cores: collectCores})
			return err
		},
		crossCheck: func() error {
			col, _, err := workflows.RunCollector(workflows.Belle2(p), opts)
			if err != nil {
				return err
			}
			return savedStateCheck(col)
		},
	}
}

// batchAnalyze is the `datalife -load` path: load a saved measurement
// database, then build and analyze its graph. Setup generates a seeded DAG
// workflow, replays its events into a collector and saves it.
func batchAnalyze(cfg runConfig) batchBench {
	n := analyzeTasks
	if cfg.size > 0 {
		n = cfg.size
	}
	var col *iotrace.Collector
	return batchBench{
		setup: func() (pipeline, error) {
			var err error
			col, err = iotrace.NewCollector(blockstats.DefaultConfig())
			if err != nil {
				return nil, err
			}
			d := genDAG(n, streamSeed(cfg.seed, 0))
			for _, b := range d.batches(serveBatch) {
				for _, ev := range b {
					if err := col.ApplyEvent(ev); err != nil {
						return nil, err
					}
				}
			}
			var buf bytes.Buffer
			if err := col.SaveJSON(&buf); err != nil {
				return nil, err
			}
			db := buf.Bytes()
			return func(tr *tracer, parent, req int64) (pipeOut, error) {
				var st *iotrace.SavedState
				var g *dfl.Graph
				if err := step(tr, "iotrace.load", parent, req, func() (err error) {
					st, err = iotrace.LoadJSON(bytes.NewReader(db))
					return err
				}); err != nil {
					return pipeOut{}, err
				}
				_ = step(tr, "dfl.build", parent, req, func() error { g = dfl.BuildSaved(st); return nil })
				out := pipeOut{flows: len(st.Flows)}
				return out, analyze(tr, parent, req, g, &out)
			}, nil
		},
		crossCheck: func() error { return savedStateCheck(col) },
	}
}

// savedStateCheck verifies that saving and reloading a measurement database
// preserves its graph: dfl.Build over the live collector and dfl.BuildSaved
// over LoadJSON(SaveJSON) must have equal fingerprints.
func savedStateCheck(col *iotrace.Collector) error {
	var buf bytes.Buffer
	if err := col.SaveJSON(&buf); err != nil {
		return err
	}
	st, err := iotrace.LoadJSON(&buf)
	if err != nil {
		return err
	}
	live, saved := dfl.Build(col).Fingerprint(), dfl.BuildSaved(st).Fingerprint()
	if live != saved {
		return fmt.Errorf("saved-state fingerprint %#016x differs from live %#016x", saved, live)
	}
	return nil
}

// batchPhase is one measured loop over the pipeline.
type batchPhase struct {
	latMS, tracedMS []float64
	elapsedNS       int64
	// allocs and allocB sum the untraced pipelines' allocations; they are
	// counted only in a traced run.
	allocs, allocB uint64
	out            pipeOut
}

// runPhase runs pipe until budgetNS has passed and at least minIters
// pipelines completed. With a tracer every second pipeline is traced, so
// traced and untraced pipelines run under the same conditions and their
// difference is the tracing overhead.
func runPhase(rep *report, pipe pipeline, tr *tracer, budgetNS int64, minIters int) batchPhase {
	var ph batchPhase
	var m0, m1 runtime.MemStats
	runtime.GC()
	start := nanotime()
	for req := int64(1); int(req) <= minIters || nanotime()-start < budgetNS; req++ {
		var t *tracer
		if req%2 == 0 {
			t = tr
		}
		if tr != nil && t == nil {
			runtime.ReadMemStats(&m0)
		}
		t0 := nanotime()
		root := t.begin("pipeline", 0, req)
		out, err := pipe(t, root, req)
		t.end(root)
		d := float64(nanotime()-t0) / 1e6
		if tr != nil && t == nil {
			runtime.ReadMemStats(&m1)
			ph.allocs += m1.Mallocs - m0.Mallocs
			ph.allocB += m1.TotalAlloc - m0.TotalAlloc
		}
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("pipeline %d: %v", req, err)
			continue
		case len(ph.latMS)+len(ph.tracedMS) == 0:
			ph.out = out
		case out != ph.out:
			rep.fail("pipeline %d output %+v differs from the first %+v", req, out, ph.out)
		}
		if t == nil {
			ph.latMS = append(ph.latMS, d)
		} else {
			ph.tracedMS = append(ph.tracedMS, d)
		}
	}
	ph.elapsedNS = nanotime() - start
	return ph
}

// runBatch measures a batch workload: set-up (repeated, median reported),
// then the measured pipelines, checked against each other, the golden
// digest and the saved-state path. A traced run interleaves traced and
// untraced pipelines for the layer breakdown, then times the bare baseline.
func runBatch(cfg runConfig, rep *report, b batchBench) {
	var pipe pipeline
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		t0 := nanotime()
		p, err := b.setup()
		if err == nil {
			_, err = p(nil, 0, 0) // warm-up, discarded
		}
		if err != nil {
			rep.fail("setup: %v", err)
			return
		}
		setupS = append(setupS, float64(nanotime()-t0)/1e9)
		pipe = p
	}

	var tr *tracer
	minIters := batchMinIters
	if cfg.trace {
		tr, minIters = newTracer(0), 2*minTail
	}
	ph := runPhase(rep, pipe, tr, int64(cfg.seconds*1e9), minIters)
	if len(ph.latMS) == 0 {
		return
	}
	if want, ok := cfg.golden[goldenKey(rep.workload, cfg)]; ok && want != ph.out.digest {
		rep.fail("digest %s does not match golden %s", ph.out.digest, want)
	}
	rep.attempted++
	if err := b.crossCheck(); err != nil {
		rep.fail("cross-check: %v", err)
	}
	rep.note("pipeline digest %s", ph.out.digest)

	if !cfg.trace {
		p90, err := percentile(ph.latMS, 90)
		if err != nil {
			rep.fail("latency_p90_ms: %v", err)
		}
		rep.set("latency_p50_ms", median(ph.latMS))
		rep.set("latency_p90_ms", p90)
		rep.set("throughput_per_s", float64(len(ph.latMS))/(float64(ph.elapsedNS)/1e9))
		rep.set("setup_s", median(setupS))
		rep.setRSS()
		rep.noteTail("pipeline", ph.latMS)
		return
	}

	if b.bare != nil {
		// As many bare runs as traced pipelines, after them and outside any
		// pipeline span, as requests numbered on from the pipelines.
		n := len(ph.latMS) + len(ph.tracedMS)
		for i := 1; i <= len(ph.tracedMS); i++ {
			if err := step(tr, "sim.run_bare", 0, int64(n+i), b.bare); err != nil {
				rep.fail("bare run %d: %v", i, err)
			}
		}
	}
	rep.spans = tr.spans
	self := selfTimes(tr.spans)
	for _, name := range []string{
		"iotrace.load", "dfl.build", "cpa.critical_path", "cpa.caterpillar", "cpa.bottlenecks",
		"patterns.analyze", "patterns.benefits", "patterns.rank", "advisor.advise", "report.render",
	} {
		if xs := self[name]; len(xs) > 0 {
			rep.set(name+"_ms", median(xs))
		}
	}
	if b.bare != nil {
		sim := median(self["sim.run_bare"])
		collect := median(self["workflows.run_collector"])
		rep.set("sim.run_ms", sim)
		rep.set("iotrace.record_ms", collect-sim)
		rep.set("iotrace.overhead_pct", 100*(collect-sim)/sim)
		rep.note("monitoring overhead: RunCollector %.4g ms vs RunBare %.4g ms", collect, sim)
	}
	untraced := float64(len(ph.latMS))
	rep.set("runtime.allocs_per_pipeline", float64(ph.allocs)/untraced)
	rep.set("runtime.alloc_mb_per_pipeline", float64(ph.allocB)/untraced/(1<<20))
	o := ph.out
	rep.set("iotrace.flows", float64(o.flows))
	rep.set("dfl.vertices", float64(o.vertices))
	rep.set("dfl.edges", float64(o.edges))
	rep.set("patterns.opportunities", float64(o.opps))
	rep.set("advisor.threads", float64(o.threads))
	p50, tracedP50 := median(ph.latMS), median(ph.tracedMS)
	rep.set("trace.overhead_pct", 100*(tracedP50-p50)/p50)
	rep.note("pipeline p50 untraced %.4g ms vs traced %.4g ms over %d pipelines each",
		p50, tracedP50, len(ph.tracedMS))
}

// goldenKey names a run's expected digest in testdata/golden.txt.
func goldenKey(workload string, cfg runConfig) string {
	if cfg.size > 0 {
		return fmt.Sprintf("%s size=%d seed=%d", workload, cfg.size, cfg.seed)
	}
	return fmt.Sprintf("%s seed=%d", workload, cfg.seed)
}
