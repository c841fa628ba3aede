package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"datalife/internal/advisor"
	"datalife/internal/blockstats"
	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/iotrace"
	"datalife/internal/journal"
	"datalife/internal/patterns"
	"datalife/internal/serve"
)

// Serve workload shape. A run repeats rounds until its budget is spent:
// each round streams every client's whole DAG into a fresh server, so the
// work per round is fixed and the server's memory stays bounded however
// long the run.
const (
	// serveClients closed-loop clients, each with its own connection and
	// session: one per CPU of the two-CPU reference machine.
	serveClients = 2
	serveBatch   = 64
	// queryEvery: on serve-mixed a fresh query follows every 24th batch.
	queryEvery = 24
	// Tasks per client DAG: ≈220k events per serve-ingest round; ≈110
	// queries per serve-mixed round, on graphs growing to ≈16k vertices.
	ingestTasks = 10000
	mixedTasks  = 8000
	// The traced replay re-appends at most replayRecords journal records
	// and evaluates at most replayQueries query points per session.
	replayRecords = 1000
	replayQueries = 16
)

var queryKinds = []string{"summary", "cpa", "patterns", "advisor"}

func sessionName(c int) string { return fmt.Sprintf("client-%d", c) }

// genStreams generates every client's DAG, cut into batches.
func genStreams(seed uint64, tasks int) [][][]iotrace.TraceEvent {
	out := make([][][]iotrace.TraceEvent, serveClients)
	for c := range out {
		out[c] = genDAG(tasks, streamSeed(seed, uint64(c))).batches(serveBatch)
	}
	return out
}

// rig is one in-process server on loopback, fsync on, with a connected
// client per session.
type rig struct {
	dir     string
	srv     *serve.Server
	served  chan error
	clients []*serve.Client
}

// newRig starts a server over a fresh journal directory under parent and
// connects the clients.
func newRig(parent string) (*rig, error) {
	dir, err := os.MkdirTemp(parent, "dlbench-")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir}
	r.srv, err = serve.NewServer(serve.Config{Dir: dir})
	if err != nil {
		r.remove()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.remove()
		return nil, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	for c := 0; c < serveClients; c++ {
		cl, err := serve.Dial(serve.ClientConfig{Addr: ln.Addr().String(), Session: sessionName(c)})
		if err != nil {
			_ = r.close()
			r.remove()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// close disconnects the clients and stops the server, waiting for it.
func (r *rig) close() error {
	for _, cl := range r.clients {
		_ = cl.Close() // the session's state is journaled; bye is a courtesy
	}
	_ = r.srv.Close() // always nil
	return <-r.served
}

func (r *rig) remove() { _ = os.RemoveAll(r.dir) }

// queryPoint is one fresh query a client made mid-stream.
type queryPoint struct {
	batch  int // index of the batch the query followed
	kind   string
	minSeq uint64
	fp     uint64 // fingerprint in a summary answer
}

// clientRun is what one client saw in one round.
type clientRun struct {
	ackMS, queryMS []float64
	points         []queryPoint
	events         uint64
	ops, stale     int
	failures       []string
	finalFP        uint64
}

func (c *clientRun) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// runClient streams batches in a closed loop, each Send blocking until the
// durable ack; on serve-mixed a fresh query follows every queryEvery-th
// batch, rotating through the query kinds. Batch b is request reqBase+b+1.
func runClient(cl *serve.Client, batches [][]iotrace.TraceEvent, mixed bool, tr *tracer, reqBase int64) clientRun {
	var r clientRun
	for b, evs := range batches {
		req := reqBase + int64(b+1)
		want := cl.NextSeq() + uint64(len(evs))
		t0 := nanotime()
		id := tr.begin("serve.send", 0, req)
		err := cl.Send(evs)
		tr.end(id)
		d := nanotime() - t0
		r.ops++
		if err != nil {
			r.fail("send batch %d: %v", b, err)
			return r
		}
		r.ackMS = append(r.ackMS, float64(d)/1e6)
		if got := cl.Durable(); got != want {
			r.fail("batch %d acked durable %d, want %d", b, got, want)
		}
		r.events = want
		if !mixed || (b+1)%queryEvery != 0 {
			continue
		}
		pt := queryPoint{batch: b, kind: queryKinds[len(r.points)%len(queryKinds)], minSeq: want}
		t0 = nanotime()
		id = tr.begin("serve.query", 0, req)
		res, err := cl.Query(pt.kind, reportTop, pt.minSeq)
		tr.end(id)
		d = nanotime() - t0
		r.ops++
		if err != nil {
			r.fail("%s query after batch %d: %v", pt.kind, b, err)
			continue
		}
		r.queryMS = append(r.queryMS, float64(d)/1e6)
		if res.Stale || res.Applied != pt.minSeq {
			r.stale++
			r.fail("%s query after batch %d: stale answer (applied %d, synced %d, want %d)",
				pt.kind, b, res.Applied, res.Synced, pt.minSeq)
		}
		if pt.kind == "summary" {
			if pt.fp, err = answerFingerprint(res.Body); err != nil {
				r.fail("summary after batch %d: %v", b, err)
			}
		}
		r.points = append(r.points, pt)
	}
	return r
}

// answerFingerprint extracts the graph fingerprint from a summary answer.
func answerFingerprint(body string) (uint64, error) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "fingerprint "); ok {
			return strconv.ParseUint(strings.TrimPrefix(rest, "0x"), 16, 64)
		}
	}
	return 0, fmt.Errorf("no fingerprint in summary answer %q", body)
}

// drive runs one round: it releases every client at once and waits for all
// of them, then asks each session for a fresh final summary outside the
// measured interval. Failures are added to rep.
func drive(rep *report, rg *rig, streams [][][]iotrace.TraceEvent, mixed bool, tracers []*tracer, reqBase int64) ([]clientRun, int64) {
	runs := make([]clientRun, len(rg.clients))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range rg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			runs[c] = runClient(rg.clients[c], streams[c], mixed, tracers[c], reqBase)
		}()
	}
	t0 := nanotime()
	close(start)
	wg.Wait()
	elapsed := nanotime() - t0

	for c, cl := range rg.clients {
		r := &runs[c]
		rep.attempted += r.ops + 1
		res, err := cl.Query("summary", reportTop, cl.NextSeq())
		switch {
		case err != nil:
			r.fail("final summary: %v", err)
		case res.Stale || res.Applied != r.events:
			r.stale++
			r.fail("final summary: stale answer (applied %d, want %d)", res.Applied, r.events)
		default:
			if r.finalFP, err = answerFingerprint(res.Body); err != nil {
				r.fail("final summary: %v", err)
			}
		}
		for _, f := range r.failures {
			rep.fail("%s: %s", sessionName(c), f)
		}
	}
	return runs, elapsed
}

// serveRounds aggregates the rounds of one kind, traced or untraced.
type serveRounds struct {
	ackMS, queryMS []float64
	events         uint64
	elapsedNS      int64
	allocs, allocB uint64
	stale, rounds  int
	// dir and runs are the first traced round's, kept for the replay.
	dir  string
	runs []clientRun
	// tracers hold the client spans of every traced round.
	tracers []*tracer
}

// runRounds streams rounds on fresh servers until budgetNS has passed,
// counting each round whole (start-up, final queries, shutdown). It checks
// each session's final fingerprint against its reference and stops at the
// first failure. An untraced run goes on until the operations its latency
// metrics cover number enough for a p90. With trace, every second round is
// traced, so traced and untraced rounds run under the same conditions; the
// first traced round's journals are kept for the replay (the caller
// removes tr.dir).
func runRounds(rep *report, cfg runConfig, streams [][][]iotrace.TraceEvent, refs []reference,
	mixed, trace bool, budgetNS int64) (un, tr serveRounds) {
	more := func() bool {
		if trace {
			return tr.rounds == 0
		}
		n := len(un.ackMS)
		if mixed {
			n = len(un.queryMS)
		}
		return n < minSamples(90)
	}
	start := nanotime()
	for round := 0; round == 0 || rep.failed == 0 && (more() || nanotime()-start < budgetNS); round++ {
		ph := &un
		tracers := make([]*tracer, serveClients)
		if trace && round%2 == 1 {
			ph = &tr
			for c := range tracers {
				tracers[c] = newTracer(int64(round*serveClients+c+1) << 40)
			}
			ph.tracers = append(ph.tracers, tracers...)
		}
		rg, err := newRig(cfg.dir)
		if err != nil {
			rep.fail("round %d: %v", round, err)
			return un, tr
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runs, elapsed := drive(rep, rg, streams, mixed, tracers, int64(round)<<32)
		runtime.ReadMemStats(&m1)
		ph.allocs += m1.Mallocs - m0.Mallocs
		ph.allocB += m1.TotalAlloc - m0.TotalAlloc
		if err := rg.close(); err != nil {
			rep.fail("round %d server: %v", round, err)
		}
		for c, r := range runs {
			ph.ackMS = append(ph.ackMS, r.ackMS...)
			ph.queryMS = append(ph.queryMS, r.queryMS...)
			ph.events += r.events
			ph.stale += r.stale
			rep.attempted++
			if r.finalFP != refs[c].fp {
				rep.fail("round %d %s: final summary fingerprint %#016x, reference dfl.Build %#016x",
					round, sessionName(c), r.finalFP, refs[c].fp)
			}
		}
		if ph == &tr && tr.dir == "" {
			tr.dir, tr.runs = rg.dir, runs
		} else {
			rg.remove()
		}
		ph.elapsedNS += elapsed
		ph.rounds++
	}
	return un, tr
}

// reference is a session's state rebuilt locally from its events.
type reference struct {
	fp                     uint64
	vertices, edges, flows int
}

// replayApply feeds a session's batches through a local collector, timing
// each batch as an iotrace.apply span. At sampled query points of run it
// rebuilds the reference graph, checks a summary fingerprint against the
// server's answer, warms the graph index, and times the query's calls.
func replayApply(rep *report, session string, batches [][]iotrace.TraceEvent, points []queryPoint, tr *tracer) reference {
	col, err := iotrace.NewCollector(blockstats.DefaultConfig())
	if err != nil {
		rep.fail("%s replay: %v", session, err)
		return reference{}
	}
	every := 1
	if len(points) > replayQueries {
		every = (len(points) + replayQueries - 1) / replayQueries
		if every%len(queryKinds) == 0 {
			every++ // keep rotating through the kinds
		}
	}
	pi := 0
	for b, evs := range batches {
		id := tr.begin("iotrace.apply", 0, int64(b+1))
		for _, ev := range evs {
			if err := col.ApplyEvent(ev); err != nil {
				rep.fail("%s replay batch %d: %v", session, b, err)
			}
		}
		tr.end(id)
		for ; pi < len(points) && points[pi].batch == b; pi++ {
			if pi%every != 0 {
				continue
			}
			pt := points[pi]
			g := dfl.Build(col)
			g.Index()
			rep.attempted++
			if pt.kind == "summary" && g.Fingerprint() != pt.fp {
				rep.fail("%s summary after batch %d: server fingerprint %#016x, reference %#016x",
					session, b, pt.fp, g.Fingerprint())
			}
			if err := queryCompute(tr, int64(b+1), g, pt.kind); err != nil {
				rep.fail("%s %s reference after batch %d: %v", session, pt.kind, b, err)
			}
		}
	}
	g := dfl.Build(col)
	return reference{fp: g.Fingerprint(), vertices: g.NumVertices(), edges: g.NumEdges(), flows: col.NumFlows()}
}

// queryCompute times the public calls a query kind makes, on a reference
// graph, as a query.<kind> span with a child per call.
func queryCompute(tr *tracer, req int64, g *dfl.Graph, kind string) error {
	root := tr.begin("query."+kind, 0, req)
	defer tr.end(root)
	call := func(name string, f func() error) error { return step(tr, name, root, req, f) }
	var path cpa.Path
	criticalPath := func() (err error) {
		path, err = cpa.CriticalPath(g, cpa.ByVolume, nil)
		return err
	}
	switch kind {
	case "summary":
		return call("dfl.summary", func() error {
			_, _, _ = g.NumVertices(), g.NumEdges(), g.TotalVolume()
			_, err := g.TopoSort()
			g.Fingerprint()
			return err
		})
	case "cpa":
		return call("cpa.critical_path", criticalPath)
	case "patterns":
		if err := call("cpa.critical_path", criticalPath); err != nil {
			return err
		}
		var cat *cpa.Caterpillar
		var opps []patterns.Opportunity
		_ = call("cpa.caterpillar", func() error { cat = cpa.DFLCaterpillar(g, path); return nil })
		_ = call("patterns.analyze", func() error { opps = patterns.Analyze(g, cat, patterns.Config{}); return nil })
		return call("report.render", func() error {
			patterns.Report("opportunities on the caterpillar (ranked):", opps, reportTop)
			return nil
		})
	case "advisor":
		var plan *advisor.Plan
		if err := call("advisor.advise", func() (err error) {
			plan, err = advisor.Advise(g, advisor.Config{})
			return err
		}); err != nil {
			return err
		}
		return call("report.render", func() error {
			plan.Report(reportTop)
			plan.LocalityScore(g)
			return nil
		})
	}
	return fmt.Errorf("unknown query kind %q", kind)
}

// replayJournal re-appends a sample of a session's on-disk journal records
// to a scratch file in the same directory, each Append followed by an
// fsync, and returns the journal's size.
func replayJournal(dir, session string, records int, tr *tracer) (int64, error) {
	in, err := os.Open(filepath.Join(dir, session+".journal"))
	if err != nil {
		return 0, err
	}
	defer in.Close()
	fi, err := in.Stat()
	if err != nil {
		return 0, err
	}
	out, err := os.Create(filepath.Join(dir, "replay-"+session+".journal"))
	if err != nil {
		return 0, err
	}
	jw := journal.NewWriter(out)
	every := max(1, (records+replayRecords-1)/replayRecords)
	sc := journal.NewScanner(bufio.NewReader(in))
	for i := int64(0); sc.Scan(); i++ {
		if i%int64(every) != 0 {
			continue
		}
		err := step(tr, "journal.append", 0, i+1, func() error { return jw.Append(sc.Bytes()) })
		if err == nil {
			err = step(tr, "journal.fsync", 0, i+1, out.Sync)
		}
		if err != nil {
			out.Close()
			return 0, err
		}
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if sc.Truncated() {
		return 0, errors.New("journal ends in a torn record after a clean shutdown")
	}
	return fi.Size(), nil
}

// runServe measures a serve workload: set-up (repeated, median reported),
// then rounds checked against local references. A traced run alternates
// untraced and traced rounds, then replays the first traced round's layers.
func runServe(cfg runConfig, rep *report, mixed bool) {
	tasks := ingestTasks
	if mixed {
		tasks = mixedTasks
	}
	if cfg.size > 0 {
		tasks = cfg.size
	}
	var streams [][][]iotrace.TraceEvent
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		t0 := nanotime()
		streams = genStreams(cfg.seed, tasks)
		rg, err := newRig(cfg.dir)
		if err != nil {
			rep.fail("setup: %v", err)
			return
		}
		// Warm up on the first eighth of every stream, queries included.
		warm := make([][][]iotrace.TraceEvent, serveClients)
		for c, s := range streams {
			warm[c] = s[:len(s)/8]
		}
		drive(rep, rg, warm, mixed, make([]*tracer, serveClients), 0)
		err = rg.close()
		rg.remove()
		if err != nil {
			rep.fail("setup: %v", err)
			return
		}
		setupS = append(setupS, float64(nanotime()-t0)/1e9)
	}
	refs := make([]reference, serveClients)
	for c := range refs {
		refs[c] = replayApply(rep, sessionName(c), streams[c], nil, nil)
	}

	un, traced := runRounds(rep, cfg, streams, refs, mixed, cfg.trace, int64(cfg.seconds*1e9))
	if un.events == 0 {
		return
	}
	events := float64(un.events)
	rep.note("%d rounds of %d sessions × %d tasks: %d events, %d queries in %.3g s",
		un.rounds, serveClients, tasks, un.events, len(un.queryMS), float64(un.elapsedNS)/1e9)
	primary := un.ackMS
	if mixed {
		primary = un.queryMS
	}
	if !cfg.trace {
		p90, err := percentile(primary, 90)
		if err != nil {
			rep.fail("latency_p90_ms: %v", err)
		}
		rep.set("latency_p50_ms", median(primary))
		rep.set("latency_p90_ms", p90)
		rep.set("throughput_per_s", events/(float64(un.elapsedNS)/1e9))
		rep.set("setup_s", median(setupS))
		rep.setRSS()
		rep.noteTail("ack", un.ackMS)
		rep.noteTail("query", un.queryMS)
		return
	}
	if traced.dir == "" {
		return
	}
	defer os.RemoveAll(traced.dir)

	rep.set("runtime.allocs_per_event", float64(un.allocs)/events)
	rep.set("runtime.alloc_bytes_per_event", float64(un.allocB)/events)
	var flows, vertices, edges int
	for _, ref := range refs {
		flows, vertices, edges = flows+ref.flows, vertices+ref.vertices, edges+ref.edges
	}
	rep.set("iotrace.flows", float64(flows))
	rep.set("dfl.vertices", float64(vertices))
	rep.set("dfl.edges", float64(edges))
	ackP50 := median(un.ackMS)
	rep.set("serve.ack_p50_ms", ackP50)
	if p99, err := percentile(un.ackMS, 99); err == nil {
		rep.set("serve.ack_p99_ms", p99)
	} else {
		rep.note("serve.ack_p99_ms: %v", err)
	}

	rtr := newTracer(0) // client tracers of traced rounds start at 3<<40
	var journalBytes int64
	var roundEvents uint64
	for c, r := range traced.runs {
		n, err := replayJournal(traced.dir, sessionName(c), len(r.ackMS), rtr)
		if err != nil {
			rep.fail("%s journal replay: %v", sessionName(c), err)
		}
		journalBytes += n
		roundEvents += r.events
		replayApply(rep, sessionName(c), streams[c], r.points, rtr)
	}
	rep.spans = allSpans(append(traced.tracers, rtr)...)

	dur := durations(rtr.spans)
	appendUS := 1000 * median(dur["journal.append"])
	fsyncUS := 1000 * median(dur["journal.fsync"])
	rep.set("journal.append_us", appendUS)
	rep.set("journal.fsync_p50_us", fsyncUS)
	if p99, err := percentile(dur["journal.fsync"], 99); err == nil {
		rep.set("journal.fsync_p99_us", 1000*p99)
	} else {
		rep.note("journal.fsync_p99_us: %v", err)
	}
	rep.set("journal.bytes_per_event", float64(journalBytes)/float64(roundEvents))
	rep.set("iotrace.apply_us", 1000*median(dur["iotrace.apply"]))
	rep.set("serve.ack_residual_us", 1000*ackP50-appendUS-fsyncUS)
	rep.note("ack residual = ack p50 %.4g us - append %.4g us - fsync %.4g us", 1000*ackP50, appendUS, fsyncUS)

	var compute []float64
	for _, k := range []struct{ kind, metric string }{
		{"summary", "dfl.summary_query_ms"}, {"cpa", "cpa.query_ms"},
		{"patterns", "patterns.query_ms"}, {"advisor", "advisor.query_ms"},
	} {
		if xs := dur["query."+k.kind]; len(xs) > 0 {
			rep.set(k.metric, median(xs))
			compute = append(compute, xs...)
		}
	}
	self := selfTimes(rtr.spans)
	for _, name := range []string{"cpa.critical_path", "cpa.caterpillar", "patterns.analyze", "advisor.advise", "report.render"} {
		if xs := self[name]; len(xs) > 0 {
			rep.set(name+"_ms", median(xs))
		}
	}
	if mixed && len(compute) > 0 {
		rep.set("serve.query_residual_ms", median(un.queryMS)-median(compute))
		rep.note("query residual = query p50 %.4g ms - compute p50 %.4g ms over %d replayed queries",
			median(un.queryMS), median(compute), len(compute))
	}
	rep.set("serve.stale_answers", float64(un.stale+traced.stale))

	tracedP50, untracedP50 := median(traced.ackMS), median(un.ackMS)
	if mixed {
		tracedP50, untracedP50 = median(traced.queryMS), median(un.queryMS)
	}
	rep.set("trace.overhead_pct", 100*(tracedP50-untracedP50)/untracedP50)
}
