package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"datalife/internal/blockstats"
	"datalife/internal/faults"
	"datalife/internal/iotrace"
	"datalife/internal/stats"
	"datalife/internal/vfs"
)

// ReadPart is one leg of a planned read: n bytes served by a tier.
type ReadPart struct {
	Tier  *vfs.Tier
	Bytes int64
	// Requests, when positive, overrides the number of round trips charged
	// for this part (per-chunk otherwise). Planners set it to 1 for batched
	// transfers such as readahead prefetches.
	Requests int64
}

// ReadPlanner decides where read bytes come from. Distributed caches
// implement this to split a read across cache levels and the origin tier.
type ReadPlanner interface {
	// PlanRead splits a read of n bytes at offset off of path (whose home
	// tier is home) into per-tier parts. The parts' bytes must sum to n.
	PlanRead(task, node, path string, home *vfs.Tier, off, n int64) []ReadPart
}

// TraceSink receives the executed operation stream: what actually ran, with
// offsets resolved and durations measured — the input to trace-based
// emulation (BigFlowSim-style capture).
type TraceSink interface {
	// Event reports one completed operation. For compute, path is empty and
	// off/n are zero. start and dur are virtual seconds.
	Event(task string, kind OpKind, path string, off, n int64, start, dur float64)
}

// homePlanner serves every read entirely from the file's home tier.
type homePlanner struct{}

func (homePlanner) PlanRead(_, _, _ string, home *vfs.Tier, _, n int64) []ReadPart {
	return []ReadPart{{Tier: home, Bytes: n}}
}

// Engine runs one workload over a cluster.
type Engine struct {
	// FS is the filesystem; seed input files before Run.
	FS *vfs.FS
	// Cluster supplies nodes and tier resolution.
	Cluster *Cluster
	// Col, when non-nil, receives DataLife measurements for every access.
	Col *iotrace.Collector
	// Planner routes reads; nil means home-tier.
	Planner ReadPlanner
	// Trace, when non-nil, receives every completed operation with resolved
	// offsets and timing — the capture half of trace-based emulation.
	Trace TraceSink
	// Faults, when non-nil and non-empty, injects the schedule's failures
	// (node crashes, transient I/O errors, tier slowdowns, link outages).
	// A nil or empty schedule leaves every code path — and therefore every
	// output byte — identical to a fault-free run.
	Faults *faults.Schedule
	// Retry tunes the recovery policy when faults are active; zero fields
	// fall back to faults.DefaultRetryPolicy.
	Retry faults.RetryPolicy
	// Checkpoint, when non-nil with a non-empty file list, proactively
	// copies the listed intermediate files to its durable tier as soon as
	// a task that wrote them finishes, and the crash-recovery triage
	// restores from those copies in preference to re-staging or re-running
	// producers. Nil leaves every code path byte-identical.
	Checkpoint *CheckpointPolicy
	// Topology, when non-nil, routes every flow between its task's node and
	// its target tier over a path of named network links with latency,
	// jitter, seeded per-chunk loss, and asymmetric bandwidth shared among
	// crossing flows; the faults partition/degrade/loss clauses act on it.
	// Nil — or a Trivial topology with no network fault clauses — leaves
	// every code path byte-identical to an un-networked run.
	Topology *Topology

	now      float64
	eq       eventHeap
	seq      int64
	pool     []*event                 // free list; retired events recycle through schedule()
	flowPool []*flow                  // free list for completed flows (incremental mode)
	tiers    map[*vfs.Tier]*tierState // per-tier flow set, counts, completion event, meta queue
	flowSeq  int64                    // flow creation order, for deterministic tie-breaks
	// naive switches fair-share repricing to the reference O(flows/tier)
	// implementation (recount, settle, reschedule every flow at every
	// boundary). The equivalence tests run both modes and assert identical
	// Results; production runs always use the incremental path.
	naive        bool
	inStartReady bool // re-entrancy latch; see startReady
	nodes        map[string]*nodeState
	tasks        map[string]*taskState
	order        []*taskState // workload order, for deterministic iteration
	ready        []*taskState
	unfin        int
	result       *Result
	failure      *TaskError
	faultsOn     bool
	retry        faults.RetryPolicy
	// Fault-recovery bookkeeping (nil unless faultsOn): file provenance for
	// the DFL-driven re-stage/re-run decision, the static path → consumer
	// index, and the set of lost files awaiting a producer re-run.
	prov        map[string]*fileProv
	consumers   map[string][]*taskState
	pendingLost map[string]*taskState
	// Checkpoint bookkeeping (zero-valued unless Checkpoint is set): the
	// durable tier, the protected-path set, and per-path copy state.
	ckptOn    bool
	ckptTier  *vfs.Tier
	ckptFiles map[string]bool
	ckpt      map[string]*ckptState
	// Network bookkeeping (nil unless netOn, i.e. a non-trivial Topology or
	// network fault clauses are active): per-link runtime state, sorted
	// adjacency for route search, and the per-location-pair route cache.
	netOn   bool
	netSeed uint64
	links   map[string]*linkState
	adj     map[string][]adjEdge
	routes  map[[2]string][]hop
}

// fileProv records how a file's current placement came to be: the task that
// last wrote it and, when it arrived by staging, the tier it was staged
// from. This is the engine-side view of the file's producing flows.
type fileProv struct {
	producer   *taskState
	stagedFrom *vfs.Tier
}

type nodeState struct {
	node      *Node
	freeCores int
	down      bool
}

type taskRun uint8

const (
	tWaiting taskRun = iota
	tReady
	tRunning
	tRetrying
	tFailed
	tDone
)

type taskState struct {
	task  *Task
	state taskRun
	node  string
	pc    int
	deps  int
	start float64
	end   float64
	// offsets tracks sequential read cursors per path. Lazily allocated:
	// only scripts with cursor reads (OpRead, Offset < 0) need it, and a
	// nil map reads as zero — only writes are guarded.
	offsets      map[string]int64
	needsOffsets bool
	// current I/O op progress
	parts   []ReadPart
	partIdx int
	// partsBuf inlines the 1–2 parts every non-planner op uses, so write,
	// stage, and default-planner read ops plan without allocating.
	partsBuf [2]ReadPart
	opStart  float64
	children []*taskState
	// staging scratch
	stageSrc *vfs.Tier
	// write-buffering state: in-flight async writes and whether the script
	// has ended and is waiting for them to flush.
	outstanding int
	draining    bool
	// recovery state: attempt is 1-based; gen invalidates in-flight events
	// across restarts; rerun marks attempts that re-execute from pc 0 so
	// their duration is charged to Result.RecoverySeconds.
	attempt int
	gen     int64
	rerun   bool
	// wrote lists protected paths this incarnation wrote, in first-write
	// order: the task's checkpoint triggers. Nil unless checkpointing is on.
	wrote []string
}

type flow struct {
	st      *tierState
	write   bool
	rem     float64 // remaining bytes
	lastT   float64
	rate    float64
	version int64 // naive-mode staleness counter (incremental mode: unused)
	idx     int   // position in st.flows, for O(1) swap-remove
	owner   *taskState
	extra   float64    // fixed post-transfer delay (per-access latency)
	async   bool       // buffered write: does not block the owner
	started float64    // issue time, for per-flow tier-time accounting
	id      int64      // creation order, for deterministic tie-breaks
	ckpt    *ckptState // non-nil for checkpoint copy legs (owner is nil)
	// Network routing state (nil/false unless the engine is netOn and the
	// flow crosses at least one link).
	hops    []hop // directed links on the flow's route
	hopIdx  []int // position in each hop's member list, for O(1) swap-remove
	stalled bool  // currently stalled behind a partition cut
}

// tierState is a tier's complete simulation state: its live flow set (
// unordered; flows carry their index for O(1) swap-remove), incrementally
// maintained reader/writer counts, the tier's single pending completion
// event (aimed at the earliest-finishing flow and re-aimed in place at each
// boundary), and the metadata-server queue tail.
type tierState struct {
	tier  *vfs.Tier
	flows []*flow
	nr    int     // live read flows
	nw    int     // live write flows
	ev    *event  // pending evFlowDone; nil when the tier is idle or stalled
	meta  float64 // metadata server next-free time
	// Result accumulators, flushed into the Result maps once at the end of
	// the run so the hot path never hashes tier names. The touched flag
	// preserves exactly which TierTime keys the per-flow updates would have
	// created (a flow can finish in zero time).
	bytes     uint64
	ttime     float64
	ttimeEver bool
	metaOps   uint64
	metaWait  float64
}

// newFlow draws a flow from the free list (zeroed).
func (e *Engine) newFlow() *flow {
	if n := len(e.flowPool); n > 0 {
		fl := e.flowPool[n-1]
		e.flowPool = e.flowPool[:n-1]
		*fl = flow{}
		return fl
	}
	return &flow{}
}

// freeFlow recycles a flow that is out of every structure. Only the
// incremental path recycles: naive mode leaves stale completion events
// holding flow pointers for their version check, so its flows must survive
// until the run ends.
func (e *Engine) freeFlow(fl *flow) {
	if e.naive {
		return
	}
	fl.st, fl.owner, fl.ckpt = nil, nil, nil
	fl.hops, fl.hopIdx = nil, nil
	e.flowPool = append(e.flowPool, fl)
}

// tierFor returns (creating on first use) a tier's state.
func (e *Engine) tierFor(t *vfs.Tier) *tierState {
	st := e.tiers[t]
	if st == nil {
		st = &tierState{tier: t}
		e.tiers[t] = st
	}
	return st
}

// addFlow inserts fl into its tier's flow set and bumps the direction count.
func (e *Engine) addFlow(st *tierState, fl *flow) {
	fl.st = st
	fl.idx = len(st.flows)
	st.flows = append(st.flows, fl)
	if fl.write {
		st.nw++
	} else {
		st.nr++
	}
}

type evKind uint8

const (
	evFlowDone evKind = iota
	evDelayDone
	evMetaDone
	evAsyncDone
	evRetry
	evCrash
	evTierChange
	evLinkChange
)

type event struct {
	t       float64
	seq     int64
	kind    evKind
	fl      *flow
	version int64
	ts      *taskState
	gen     int64      // task incarnation the event belongs to
	idx     int        // heap position, for in-place Fix/Remove; -1 when popped
	node    string     // evCrash payload
	tier    *vfs.Tier  // evTierChange payload
	link    *linkState // evLinkChange payload
}

// eventHeap is a concrete binary min-heap over (t, seq) with intrusive
// indices: events know their slot, so a tier boundary re-aims its pending
// completion event in place (one sift) instead of orphaning it and pushing
// a replacement.
type eventHeap []*event

func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *event) {
	ev.idx = len(e.eq)
	e.eq = append(e.eq, ev)
	e.heapUp(ev.idx)
}

func (e *Engine) heapPop() *event {
	h := e.eq
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].idx = 0
	h[n] = nil
	e.eq = h[:n]
	if n > 1 {
		e.heapDown(0)
	}
	ev.idx = -1
	return ev
}

// heapFix restores heap order after e.eq[i] changed key.
func (e *Engine) heapFix(i int) {
	if !e.heapDown(i) {
		e.heapUp(i)
	}
}

// heapRemove deletes e.eq[i].
func (e *Engine) heapRemove(i int) {
	h := e.eq
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].idx = i
	}
	h[n] = nil
	e.eq = h[:n]
	if i < n {
		e.heapFix(i)
	}
	ev.idx = -1
}

func (e *Engine) heapUp(i int) {
	h := e.eq
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = ev
	ev.idx = i
}

// heapDown sifts e.eq[i] toward the leaves; reports whether it moved.
func (e *Engine) heapDown(i int) bool {
	h := e.eq
	n := len(h)
	ev := h[i]
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			c = r
		}
		if !eventLess(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i] = ev
	ev.idx = i
	return i > i0
}

func (e *Engine) push(ev *event)       { e.seq++; ev.seq = e.seq; e.heapPush(ev) }
func (e *Engine) at(t float64) float64 { return math.Max(t, e.now) }

// newEvent draws an event struct from the free list.
func (e *Engine) newEvent() *event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return ev
	}
	return &event{}
}

// schedule queues an event at time t, drawing the struct from the free list.
// Flow reschedules pass the flow and its version; task wakeups pass ts.
func (e *Engine) schedule(t float64, kind evKind, fl *flow, version int64, ts *taskState) {
	ev := e.newEvent()
	ev.t, ev.kind, ev.fl, ev.version, ev.ts = t, kind, fl, version, ts
	if ts != nil {
		ev.gen = ts.gen
	} else {
		ev.gen = 0
	}
	e.push(ev)
}

// scheduleCrash queues a node-crash event.
func (e *Engine) scheduleCrash(t float64, node string) {
	ev := e.newEvent()
	ev.t, ev.kind, ev.fl, ev.version, ev.ts, ev.gen = t, evCrash, nil, 0, nil, 0
	ev.node = node
	e.push(ev)
}

// scheduleTierChange queues a fault-window boundary on a tier.
func (e *Engine) scheduleTierChange(t float64, tier *vfs.Tier) {
	ev := e.newEvent()
	ev.t, ev.kind, ev.fl, ev.version, ev.ts, ev.gen = t, evTierChange, nil, 0, nil, 0
	ev.tier = tier
	e.push(ev)
}

// scheduleLinkChange queues a fault-window boundary on a network link.
func (e *Engine) scheduleLinkChange(t float64, ls *linkState) {
	ev := e.newEvent()
	ev.t, ev.kind, ev.fl, ev.version, ev.ts, ev.gen = t, evLinkChange, nil, 0, nil, 0
	ev.link = ls
	e.push(ev)
}

// free returns a popped event to the free list, dropping its pointers so the
// pool does not pin flows or tasks.
func (e *Engine) free(ev *event) {
	ev.fl, ev.ts, ev.tier, ev.link, ev.node = nil, nil, nil, nil, ""
	e.pool = append(e.pool, ev)
}

// TaskTime records one task's execution window.
type TaskTime struct {
	Start, End float64
	Node       string
}

// Result summarizes a run.
type Result struct {
	// Makespan is the virtual end-to-end time in seconds.
	Makespan float64
	// Tasks maps task name to its window.
	Tasks map[string]TaskTime
	// Stages maps stage tag to its [min start, max end] span.
	Stages map[string]TaskTime
	// TierBytes counts bytes served per tier name (reads + writes).
	TierBytes map[string]uint64
	// TierTime accumulates task-blocking seconds per tier name.
	TierTime map[string]float64
	// MetaOps counts metadata operations per tier name.
	MetaOps map[string]uint64
	// MetaWait accumulates metadata queueing delay per tier name.
	MetaWait map[string]float64
	// ComputeTime accumulates task compute seconds across all tasks.
	ComputeTime float64

	// Fault-injection extensions; all remain zero/nil on fault-free runs so
	// fault-free results are unchanged.

	// Attempts maps task name to its execution-attempt count (>= 1);
	// populated only when a fault schedule is active.
	Attempts map[string]int
	// Failures lists every task failure in virtual-time order, recovered
	// or fatal.
	Failures []Failure
	// RecoverySeconds is virtual time spent recovering: backoff waits plus
	// the durations of restarted attempts and producer re-runs.
	RecoverySeconds float64
	// NodeCrashes counts injected crashes that took a node down.
	NodeCrashes int
	// LostFiles counts files lost on crashed nodes' local tiers.
	LostFiles int
	// Restagings counts lost files recovered by re-staging from a shared
	// tier (the file's producing flow came from one).
	Restagings int
	// ProducerReruns counts lost files recovered by re-running the
	// producing task.
	ProducerReruns int

	// Checkpoint extensions; all remain zero unless Engine.Checkpoint is
	// set, so non-checkpointed results are unchanged.

	// CheckpointCopies counts completed copies of protected files to the
	// durable checkpoint tier.
	CheckpointCopies int
	// CheckpointBytes totals the bytes of completed checkpoint copies.
	CheckpointBytes uint64
	// CheckpointRestores counts crash-lost files re-materialized from
	// their durable copy instead of re-staging or re-running a producer.
	CheckpointRestores int

	// Network extensions; all remain zero/nil unless a non-trivial Topology
	// (or a network fault clause) is active, so un-networked results are
	// unchanged.

	// LinkBytes counts bytes carried per link name, both directions,
	// including loss retransmissions.
	LinkBytes map[string]uint64
	// LinkRetransmits counts chunks lost and re-sent per link name.
	LinkRetransmits map[string]uint64
	// PartitionStalls counts flow stall episodes behind partition cuts.
	PartitionStalls int
}

// StageDuration returns the duration of a stage tag, or 0.
func (r *Result) StageDuration(stage string) float64 {
	s, ok := r.Stages[stage]
	if !ok {
		return 0
	}
	return s.End - s.Start
}

// StageNames returns stage tags sorted by start time.
func (r *Result) StageNames() []string {
	names := make([]string, 0, len(r.Stages))
	for n := range r.Stages {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		si, sj := r.Stages[names[i]], r.Stages[names[j]]
		if si.Start != sj.Start {
			return si.Start < sj.Start
		}
		return names[i] < names[j]
	})
	return names
}

// Run executes the workload to completion and returns the result. A task
// that cannot complete — after recovery when a fault schedule is active —
// surfaces as a *TaskError.
func (e *Engine) Run(w *Workload) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if e.FS == nil || e.Cluster == nil {
		return nil, fmt.Errorf("sim: engine needs FS and Cluster")
	}
	if e.Planner == nil {
		e.Planner = homePlanner{}
	}
	e.now = 0
	e.eq = nil
	e.failure = nil
	e.tiers = make(map[*vfs.Tier]*tierState)
	e.flowSeq = 0
	e.nodes = make(map[string]*nodeState, len(e.Cluster.Nodes))
	for _, n := range e.Cluster.Nodes {
		e.nodes[n.Name] = &nodeState{node: n, freeCores: n.Cores}
	}
	e.tasks = make(map[string]*taskState, len(w.Tasks))
	e.order = e.order[:0]
	e.ready = nil
	e.result = &Result{
		Tasks:     make(map[string]TaskTime, len(w.Tasks)),
		Stages:    make(map[string]TaskTime),
		TierBytes: make(map[string]uint64),
		TierTime:  make(map[string]float64),
		MetaOps:   make(map[string]uint64),
		MetaWait:  make(map[string]float64),
	}

	// Build dependency graph. Task states are slab-allocated (the slice is
	// never reallocated, so the pointers stay stable) and the sequential-
	// read cursor map is only built for scripts that use cursor reads.
	states := make([]taskState, len(w.Tasks))
	for i, t := range w.Tasks {
		ts := &states[i]
		ts.task, ts.deps, ts.attempt = t, len(t.Deps), 1
		for j := range t.Script {
			if op := &t.Script[j]; op.Kind == OpRead && op.Offset < 0 {
				ts.needsOffsets = true
				ts.offsets = make(map[string]int64)
				break
			}
		}
		e.tasks[t.Name] = ts
		e.order = append(e.order, ts)
	}
	for _, t := range w.Tasks {
		ts := e.tasks[t.Name]
		for _, d := range t.Deps {
			e.tasks[d].children = append(e.tasks[d].children, ts)
		}
	}
	if err := e.initFaults(); err != nil {
		return nil, configError{err}
	}
	if err := e.initTopology(); err != nil {
		return nil, configError{err}
	}
	if err := e.initCheckpoint(); err != nil {
		return nil, configError{err}
	}
	e.unfin = len(w.Tasks)
	for _, ts := range e.order { // preserve submission order for determinism
		if ts.deps == 0 {
			ts.state = tReady
			e.ready = append(e.ready, ts)
		}
	}
	e.startReady()

	for e.unfin > 0 {
		if e.failure != nil {
			return nil, e.failure
		}
		if len(e.eq) == 0 {
			return nil, fmt.Errorf("sim: deadlock with %d unfinished tasks (unsatisfiable placement or cyclic deps)", e.unfin)
		}
		ev := e.heapPop()
		kind, fl, version, ts, t, gen := ev.kind, ev.fl, ev.version, ev.ts, ev.t, ev.gen
		node, tier, link := ev.node, ev.tier, ev.link
		if kind == evFlowDone {
			if e.naive {
				if version != fl.version {
					e.free(ev)
					continue // stale reschedule
				}
			} else {
				// The tier's single completion event is re-aimed in place
				// and removed when the tier idles, so a popped one is always
				// current; detach it before finishFlow resettles the tier.
				fl.st.ev = nil
			}
		}
		e.free(ev)
		if ts != nil && gen != ts.gen {
			continue // event from a pre-failure incarnation of the task
		}
		e.now = t
		switch kind {
		case evFlowDone:
			e.finishFlow(fl)
			e.freeFlow(fl)
		case evDelayDone, evMetaDone:
			e.step(ts)
		case evAsyncDone:
			e.asyncDone(ts)
		case evRetry:
			e.retryTask(ts)
		case evCrash:
			e.crashNode(node)
		case evTierChange:
			e.resettle(e.tierFor(tier))
		case evLinkChange:
			e.linkChange(link)
		}
	}
	if e.failure != nil {
		return nil, e.failure
	}
	// Flush the per-tier accumulators. Keys are distinct per tier, so map
	// iteration order cannot affect the result.
	for _, st := range e.tiers {
		name := st.tier.Name
		if st.bytes > 0 {
			e.result.TierBytes[name] += st.bytes
		}
		if st.ttimeEver {
			e.result.TierTime[name] += st.ttime
		}
		if st.metaOps > 0 {
			e.result.MetaOps[name] += st.metaOps
			e.result.MetaWait[name] += st.metaWait
		}
	}
	if e.netOn {
		e.flushLinkStats()
	}
	e.result.Makespan = e.now
	if e.faultsOn {
		e.result.Attempts = make(map[string]int, len(e.order))
		for _, ts := range e.order {
			e.result.Attempts[ts.task.Name] = ts.attempt
		}
	}
	return e.result, nil
}

// initFaults validates the fault schedule against the cluster, schedules
// its crash and tier-window events, and builds the recovery indices. With a
// nil or empty schedule it leaves the engine byte-identical to a fault-free
// run: no extra events, no extra state.
func (e *Engine) initFaults() error {
	e.faultsOn = e.Faults != nil && !e.Faults.Empty()
	e.prov, e.consumers, e.pendingLost = nil, nil, nil
	if !e.faultsOn {
		return nil
	}
	if err := e.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	e.retry = e.Retry.WithDefaults()
	for _, c := range e.Faults.Crashes {
		if _, ok := e.nodes[c.Node]; !ok {
			return fmt.Errorf("sim: fault schedule crashes unknown node %q", c.Node)
		}
		e.scheduleCrash(c.Time, c.Node)
	}
	rateTiers := make([]string, 0, len(e.Faults.IOErrorRates))
	for tier := range e.Faults.IOErrorRates {
		rateTiers = append(rateTiers, tier)
	}
	sort.Strings(rateTiers)
	for _, tier := range rateTiers {
		if _, err := e.FS.Tier(tier); err != nil {
			return fmt.Errorf("sim: fault schedule injects I/O errors on unknown tier %q", tier)
		}
	}
	bounds := e.Faults.TierBoundaries()
	names := make([]string, 0, len(bounds))
	for name := range bounds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tier, err := e.FS.Tier(name)
		if err != nil {
			return fmt.Errorf("sim: fault schedule degrades unknown tier %q", name)
		}
		for _, t := range bounds[name] {
			e.scheduleTierChange(t, tier)
		}
	}
	// Recovery indices: who consumes each path (the consuming flows of the
	// DFL graph, read off the scripts) and, filled as the run proceeds, who
	// produced each file (the producing flows).
	e.prov = make(map[string]*fileProv)
	e.pendingLost = make(map[string]*taskState)
	e.consumers = make(map[string][]*taskState)
	for _, ts := range e.order {
		seen := make(map[string]bool)
		for _, op := range ts.task.Script {
			if op.Path == "" {
				continue
			}
			if op.Kind == OpRead || op.Kind == OpStage || op.Kind == OpOpen {
				if !seen[op.Path] {
					seen[op.Path] = true
					e.consumers[op.Path] = append(e.consumers[op.Path], ts)
				}
			}
		}
	}
	return nil
}

// injectedIOErr draws the deterministic transient-failure decision for the
// current op against a tier; nil when faults are off or the draw passes.
func (e *Engine) injectedIOErr(ts *taskState, tier *vfs.Tier) error {
	if !e.faultsOn {
		return nil
	}
	if e.Faults.ShouldFailIO(tier.Name, ts.task.Name, ts.pc, ts.attempt) {
		return transientError{tier: tier.Name}
	}
	return nil
}

// classify maps an op error to its failure kind: injected transient errors
// and reads of files lost to a crash (whose producer is re-running) are
// retryable; everything else is a hard I/O failure.
func (e *Engine) classify(path string, err error) FailureKind {
	var te transientError
	if errors.As(err, &te) {
		return FailTransient
	}
	if e.pendingLost != nil {
		if _, lost := e.pendingLost[path]; lost {
			return FailTransient
		}
	}
	return FailIO
}

// opFail handles a failed op or attempt: retryable failures re-enter the
// script after a capped exponential backoff (crash restarts re-run from pc
// 0 on a surviving node); everything else aborts the run with a typed
// *TaskError.
func (e *Engine) opFail(ts *taskState, opIdx int, op *Op, kind FailureKind, cause error) {
	terr := &TaskError{
		Task: ts.task.Name, OpIndex: opIdx, Node: ts.node,
		Attempt: ts.attempt, Kind: kind, Cause: cause,
	}
	if op != nil {
		terr.Op, terr.Path = op.Kind, op.Path
	}
	recovered := e.faultsOn && kind.Retryable() && ts.attempt < e.retry.MaxAttempts
	e.result.Failures = append(e.result.Failures, Failure{
		Task: ts.task.Name, Time: e.now, OpIndex: opIdx,
		Kind: kind.String(), Detail: cause.Error(), Recovered: recovered,
	})
	if !recovered {
		ts.state = tFailed
		e.failure = terr
		return
	}
	ts.attempt++
	ts.gen++ // invalidate in-flight events from the failed incarnation
	ts.parts = nil
	ts.state = tRetrying
	delay := e.retry.Delay(ts.attempt)
	e.result.RecoverySeconds += delay
	e.schedule(e.now+delay, evRetry, nil, 0, ts)
}

// retryTask re-enters a retrying task: transient op failures resume at the
// failing op; crash restarts (node cleared) re-queue for placement on a
// surviving node; a task whose lost-input producer is still re-running
// waits for it.
func (e *Engine) retryTask(ts *taskState) {
	if ts.state != tRetrying {
		return
	}
	if ts.deps > 0 {
		// A producer this task needs was resurrected after data loss; wait
		// for it to finish (finishTask promotes waiting tasks).
		ts.state = tWaiting
		return
	}
	if ts.node == "" {
		ts.state = tReady
		e.ready = append(e.ready, ts)
		e.startReady()
		return
	}
	ts.state = tRunning
	e.step(ts)
}

// crashNode takes a node down: every task running on it fails and is
// rescheduled, its in-flight flows are cancelled, and all data on its
// node-local tiers is lost and recovered through the files' producing
// flows (re-stage from a shared tier, or re-run the producer).
func (e *Engine) crashNode(name string) {
	ns := e.nodes[name]
	if ns == nil || ns.down {
		return
	}
	ns.down = true
	e.result.NodeCrashes++

	// Cancel every flow owned by a task on the crashed node, in sorted tier
	// order for deterministic event sequencing.
	tiers := make([]*tierState, 0, len(e.tiers))
	for _, st := range e.tiers {
		tiers = append(tiers, st)
	}
	sort.Slice(tiers, func(i, j int) bool { return tiers[i].tier.Name < tiers[j].tier.Name })
	for _, st := range tiers {
		changed := false
		for i := 0; i < len(st.flows); {
			fl := st.flows[i]
			if fl.owner != nil && fl.owner.node == name && fl.owner.state == tRunning {
				fl.version++ // naive mode: orphan the pending completion event
				e.removeFlow(fl)
				e.freeFlow(fl)
				changed = true
				continue // swap-remove moved a new flow into slot i
			}
			if fl.ckpt != nil && fl.ckpt.srcNode == name {
				// The copy's source bytes just vanished with the node:
				// abort the in-flight checkpoint; it never becomes durable.
				e.abortCkptCopy(fl.ckpt, false)
				e.removeFlow(fl)
				e.freeFlow(fl)
				changed = true
				continue
			}
			i++
		}
		if changed && !e.netOn {
			e.resettle(st)
		}
	}
	if e.netOn {
		// Cancelled flows may have shared links with flows on other tiers;
		// rather than track the coupling through a rare event, reprice every
		// tier in sorted order.
		for _, st := range tiers {
			e.resettle(st)
		}
	}

	// Fail the victims: tasks running on the node restart from the top of
	// their script on a surviving node after backoff.
	for _, ts := range e.order {
		if ts.state != tRunning || ts.node != name {
			continue
		}
		opIdx := -1
		var op *Op
		if ts.pc < len(ts.task.Script) {
			opIdx, op = ts.pc, &ts.task.Script[ts.pc]
		}
		e.opFail(ts, opIdx, op, FailNodeCrash, fmt.Errorf("node %s crashed", name))
		if ts.state != tRetrying {
			continue // out of attempts; run is aborting
		}
		ts.node = ""
		ts.pc = 0
		if ts.needsOffsets {
			ts.offsets = make(map[string]int64)
		}
		ts.outstanding, ts.draining = 0, false
		ts.rerun = true
		ts.wrote = nil
	}

	// Lose the node-local data and walk each file's producing flows to
	// decide recovery. FS.Files is path-sorted, keeping this deterministic.
	type lostFile struct {
		path string
		size int64
	}
	var dead []lostFile
	for _, f := range e.FS.Files() {
		if f.Tier.Node != name {
			continue
		}
		dead = append(dead, lostFile{f.Path, f.Size})
		_ = e.FS.Remove(f.Path)
		e.result.LostFiles++
	}
	var skipped []lostFile
	for _, lf := range dead {
		if !e.recoverFile(lf.path, lf.size) {
			skipped = append(skipped, lf)
		}
	}
	// A resurrection in the first pass revives consumers: a file whose only
	// reader looked finished may now be re-read by that reader's re-run (a
	// re-run stage op needs its source back). Give the files written off as
	// dead a second look against the final resurrection set.
	for _, lf := range skipped {
		e.recoverFile(lf.path, lf.size)
	}
	e.startReady()
}

// recoverFile decides how to restore a file lost with a crashed node. The
// decision is the paper's lifetime reasoning made operational: if no live
// consumer remains, the file's lifetime was over and nothing is done (and
// recoverFile reports false so the caller can retry once resurrections are
// settled); if its producing flow staged it off a shared tier, the bytes
// still exist there and are re-materialized (re-staging); otherwise the
// producing task is re-run.
func (e *Engine) recoverFile(path string, size int64) bool {
	live := false
	for _, c := range e.consumers[path] {
		if c.state != tDone {
			live = true
			break
		}
	}
	if !live {
		return false
	}
	if e.ckptOn && e.restoreFromCheckpoint(path) {
		// A durable checkpoint copy exists on the shared tier: restoring it
		// is a metadata re-create, strictly cheaper than re-staging logic
		// below and than re-running the producer.
		return true
	}
	p := e.prov[path]
	switch {
	case p != nil && p.stagedFrom != nil && p.stagedFrom.Shared:
		// Stage is a copy in real systems even though vfs models a move:
		// the source tier still holds the bytes, so restore them there and
		// let consumers (or their re-run stage ops) pull them again.
		if _, err := e.FS.CreateSized(path, p.stagedFrom.Name, size); err == nil {
			e.result.Restagings++
		}
	case p != nil && p.producer != nil:
		prod := p.producer
		if prod.state == tDone {
			e.resurrect(prod)
			e.result.ProducerReruns++
		}
		// A producer that is running or already retrying re-produces the
		// file as part of its own recovery.
		e.pendingLost[path] = prod
	default:
		// A seeded input with no recorded producing flow is unrecoverable;
		// a future reader will surface the loss as a hard I/O failure.
	}
	return true
}

// resurrect re-queues a completed producer task whose output was lost,
// re-blocking dependents that have not yet consumed it.
func (e *Engine) resurrect(ts *taskState) {
	for _, c := range ts.children {
		switch c.state {
		case tWaiting, tRetrying:
			c.deps++
		case tReady:
			c.deps++
			c.state = tWaiting
			for i, r := range e.ready {
				if r == c {
					e.ready = append(e.ready[:i], e.ready[i+1:]...)
					break
				}
			}
		}
	}
	e.unfin++
	ts.attempt++
	ts.gen++
	ts.pc = 0
	ts.parts = nil
	if ts.needsOffsets {
		ts.offsets = make(map[string]int64)
	}
	ts.outstanding, ts.draining = 0, false
	ts.node = ""
	ts.rerun = true
	ts.wrote = nil
	ts.state = tReady
	e.ready = append(e.ready, ts)
}

// startReady launches as many ready tasks as fit on free cores.
//
// The queue is scanned in order (placement order is part of the determinism
// contract) but the scan is O(work done), not O(queue): every task needs at
// least one core, so once no surviving node has a free core nothing later in
// the queue can place either and the scan stops. Tasks that could not place
// (the keepers, typically pinned to a full or down node) are shifted right
// to join the unscanned suffix instead of copying the — at fan-in scale,
// enormous — suffix left. e.step can complete a task synchronously and
// re-enter; the latch makes the nested call a no-op and the outer scan,
// which reads e.ready live, picks up anything the completion freed.
func (e *Engine) startReady() {
	if e.inStartReady {
		return
	}
	if len(e.ready) == 0 || e.maxFreeCores() == 0 {
		return
	}
	e.inStartReady = true
	w := 0 // keepers occupy e.ready[:w]
	r := 0
	for ; r < len(e.ready); r++ {
		ts := e.ready[r]
		node, ok := e.pickNode(ts.task)
		if !ok {
			e.ready[w] = ts
			w++
			continue
		}
		cores := ts.task.Cores
		if cores <= 0 {
			cores = 1
		}
		e.nodes[node].freeCores -= cores
		ts.node = node
		ts.state = tRunning
		ts.start = e.now
		if e.Col != nil {
			e.Col.TaskStarted(ts.task.Name, e.now)
		}
		e.step(ts)
		if e.maxFreeCores() == 0 {
			r++
			break
		}
	}
	if r >= len(e.ready) {
		for i := w; i < len(e.ready); i++ {
			e.ready[i] = nil
		}
		e.ready = e.ready[:w]
	} else {
		// Early exit: keepers [0,w) join the unscanned suffix [r,len).
		copy(e.ready[r-w:r], e.ready[:w])
		e.ready = e.ready[r-w:]
	}
	e.inStartReady = false
}

// maxFreeCores returns the largest free-core count on any surviving node —
// zero means no ready task can place, whatever its requirements.
func (e *Engine) maxFreeCores() int {
	max := 0
	for _, ns := range e.nodes {
		if !ns.down && ns.freeCores > max {
			max = ns.freeCores
		}
	}
	return max
}

// pickNode selects the pinned node or the least-loaded surviving node with
// room.
func (e *Engine) pickNode(t *Task) (string, bool) {
	cores := t.Cores
	if cores <= 0 {
		cores = 1
	}
	if t.Node != "" {
		ns, ok := e.nodes[t.Node]
		if !ok || ns.down {
			return "", false
		}
		return t.Node, ns.freeCores >= cores
	}
	best := ""
	bestFree := -1
	for _, n := range e.Cluster.Nodes { // stable order
		ns := e.nodes[n.Name]
		if ns.down {
			continue
		}
		if ns.freeCores >= cores && ns.freeCores > bestFree {
			best, bestFree = n.Name, ns.freeCores
		}
	}
	return best, best != ""
}

// step advances a task's script until it blocks, fails, or completes.
func (e *Engine) step(ts *taskState) {
	for {
		// Resume a multi-part I/O op.
		if ts.parts != nil {
			if ts.partIdx < len(ts.parts) {
				e.startPart(ts)
				return
			}
			op := &ts.task.Script[ts.pc]
			if err := e.completeIOOp(ts); err != nil {
				e.opFail(ts, ts.pc, op, e.classify(op.Path, err), err)
				return
			}
			ts.parts = nil
			ts.pc++
			continue
		}
		if ts.pc >= len(ts.task.Script) {
			if ts.outstanding > 0 {
				// Write-behind flush: the task ends once its buffered
				// writes drain.
				ts.draining = true
				return
			}
			e.finishTask(ts)
			return
		}
		op := &ts.task.Script[ts.pc]
		switch op.Kind {
		case OpCompute:
			ts.pc++
			e.result.ComputeTime += op.Seconds
			if e.Trace != nil {
				e.Trace.Event(ts.task.Name, OpCompute, "", 0, 0, e.now, op.Seconds)
			}
			e.schedule(e.now+op.Seconds, evDelayDone, nil, 0, ts)
			return
		case OpOpen, OpClose, OpDelete:
			scheduled, err := e.metaOp(ts, op)
			if err != nil {
				e.opFail(ts, ts.pc, op, FailConfig, err)
				return
			}
			if scheduled {
				return // event scheduled
			}
			ts.pc++ // metadata op failed soft (missing file on delete) — skip
		case OpRead, OpWrite, OpStage:
			if op.Kind == OpWrite && ts.task.AsyncWrites {
				if err := e.issueAsyncWrite(ts, op); err != nil {
					e.opFail(ts, ts.pc, op, e.classify(op.Path, err), err)
					return
				}
				ts.pc++
				continue
			}
			if err := e.beginIOOp(ts, op); err != nil {
				kind := e.classify(op.Path, err)
				if errors.Is(err, errPlanner) {
					kind = FailConfig
				}
				e.opFail(ts, ts.pc, op, kind, err)
				return
			}
			if ts.parts == nil { // zero-byte op, nothing to do
				ts.pc++
				continue
			}
			e.startPart(ts)
			return
		default:
			e.opFail(ts, ts.pc, op, FailConfig, fmt.Errorf("unknown op kind %d", op.Kind))
			return
		}
	}
}

// metaOp performs open/close/delete with metadata-server queueing. Returns
// true when an event was scheduled.
func (e *Engine) metaOp(ts *taskState, op *Op) (bool, error) {
	var tier *vfs.Tier
	if f := e.FS.Lookup(op.Path); f != nil {
		tier = f.Tier
	} else if op.Kind == OpOpen {
		// Opening a file that will be created: charge against the
		// task's create tier.
		var err error
		tier, err = e.resolveTier(ts, ts.task.CreateTier)
		if err != nil {
			return false, err
		}
	} else {
		return false, nil // close/delete of missing file: no-op
	}
	if op.Kind == OpDelete {
		_ = e.FS.Remove(op.Path)
	}
	st := e.tierFor(tier)
	free := e.at(st.meta)
	wait := free - e.now
	done := free + tier.MetaOpS
	// The server queue advances by the per-op occupancy: MetaOpS divided by
	// the tier's metadata concurrency (latency-dominated servers overlap ops).
	conc := tier.MetaConcurrency
	if conc < 1 {
		conc = 1
	}
	st.meta = free + tier.MetaOpS/float64(conc)
	st.metaOps++
	st.metaWait += wait
	if e.Col != nil {
		switch op.Kind {
		case OpOpen:
			e.Col.Flow(ts.task.Name, op.Path, fileSizeOrZero(e.FS, op.Path)).RecordOpen(e.now)
		case OpClose:
			e.Col.Flow(ts.task.Name, op.Path, 0).RecordClose(done)
		}
	}
	if e.Trace != nil {
		e.Trace.Event(ts.task.Name, op.Kind, op.Path, 0, 0, e.now, done-e.now)
	}
	ts.pc++
	e.schedule(done, evMetaDone, nil, 0, ts)
	return true, nil
}

func fileSizeOrZero(fs *vfs.FS, path string) int64 {
	if f, err := fs.Stat(path); err == nil {
		return f.Size
	}
	return 0
}

// errPlanner marks read-planner contract violations (configuration errors,
// never retried).
var errPlanner = errors.New("planner contract violation")

// beginIOOp plans the parts of a read/write/stage op.
func (e *Engine) beginIOOp(ts *taskState, op *Op) error {
	ts.opStart = e.now
	ts.partIdx = 0
	ts.stageSrc = nil
	switch op.Kind {
	case OpRead:
		f := e.FS.Lookup(op.Path)
		if f == nil {
			return fmt.Errorf("vfs: no such file %q", op.Path)
		}
		if !vfs.VisibleFrom(f.Tier, ts.node) {
			return fmt.Errorf("file on node-local tier %s not visible from node %s", f.Tier.Name, ts.node)
		}
		if err := e.injectedIOErr(ts, f.Tier); err != nil {
			return err
		}
		off := op.Offset
		if off < 0 {
			off = ts.offsets[op.Path]
		}
		n := op.Bytes
		if off >= f.Size {
			n = 0
		} else if off+n > f.Size {
			n = f.Size - off
		}
		rep := op.Repeat
		if rep < 1 {
			rep = 1
		}
		// Fragmented (strided) access over-fetches: chunk accesses spread
		// over a Stride-spaced span pull in block-granular data the task
		// does not use, so the planned transfer covers the spanned range.
		span := n
		if op.Pattern == Strided && op.Chunk > 0 && op.Stride > op.Chunk {
			span = n * op.Stride / op.Chunk
			if off+span > f.Size {
				span = f.Size - off
			}
		}
		total := span * int64(rep)
		if total == 0 {
			ts.parts = nil
			return nil
		}
		if ts.offsets != nil {
			ts.offsets[op.Path] = off + n
		}
		if _, home := e.Planner.(homePlanner); home {
			// The default planner serves the whole read from the home tier;
			// plan it into the task's inline part buffer instead of through
			// the interface (same single part, no allocation).
			ts.partsBuf[0] = ReadPart{Tier: f.Tier, Bytes: total}
			ts.parts = ts.partsBuf[:1]
			return nil
		}
		ts.parts = e.Planner.PlanRead(ts.task.Name, ts.node, op.Path, f.Tier, off, total)
		var sum int64
		for _, p := range ts.parts {
			sum += p.Bytes
		}
		// Planners may over-fetch (block granularity, readahead) but never
		// under-deliver.
		if sum < total {
			return fmt.Errorf("%w: planner returned %d bytes for a %d-byte read", errPlanner, sum, total)
		}
	case OpWrite:
		if op.Bytes == 0 {
			ts.parts = nil
			return nil
		}
		f := e.FS.Lookup(op.Path)
		if f == nil {
			tier, terr := e.resolveTier(ts, ts.task.CreateTier)
			if terr != nil {
				return terr
			}
			var err error
			if f, err = e.FS.Create(op.Path, tier.Name); err != nil {
				return err
			}
		}
		if !vfs.VisibleFrom(f.Tier, ts.node) {
			return fmt.Errorf("file on node-local tier %s not visible from node %s", f.Tier.Name, ts.node)
		}
		if err := e.injectedIOErr(ts, f.Tier); err != nil {
			return err
		}
		ts.partsBuf[0] = ReadPart{Tier: f.Tier, Bytes: op.Bytes}
		ts.parts = ts.partsBuf[:1]
	case OpStage:
		f := e.FS.Lookup(op.Path)
		if f == nil {
			return fmt.Errorf("vfs: no such file %q", op.Path)
		}
		dst, err := e.resolveTier(ts, op.Tier)
		if err != nil {
			return err
		}
		if f.Tier == dst || f.Size == 0 {
			ts.parts = nil
			return nil
		}
		if err := e.injectedIOErr(ts, f.Tier); err != nil {
			return err
		}
		// Leg 1: read at source; leg 2 (write at target) is queued behind it.
		ts.stageSrc = f.Tier
		ts.partsBuf[0] = ReadPart{Tier: f.Tier, Bytes: f.Size}
		ts.partsBuf[1] = ReadPart{Tier: dst, Bytes: f.Size}
		ts.parts = ts.partsBuf[:2]
	}
	return nil
}

// startPart launches the current part as a flow on its tier. When a
// topology is active the part is routed over its link path first: an active
// fail-fast cut fails the op (typed, retryable) before any flow exists, and
// otherwise the links' latency, jitter, and loss retransmissions are charged
// up front — all pure functions of the seed and the op's coordinates.
func (e *Engine) startPart(ts *taskState) {
	op := &ts.task.Script[ts.pc]
	part := ts.parts[ts.partIdx]
	write := op.Kind == OpWrite || (op.Kind == OpStage && ts.partIdx == 1)

	// Per-access latency: one tier latency per chunk, unless the planner
	// declared the part a batched transfer.
	chunk := op.Chunk
	if chunk <= 0 {
		chunk = part.Bytes
	}
	nAcc := (part.Bytes + chunk - 1) / chunk
	if part.Requests > 0 {
		nAcc = part.Requests
	}
	extra := float64(nAcc) * part.Tier.LatencyS

	rem := float64(part.Bytes)
	var hops []hop
	if e.netOn {
		var err error
		hops, err = e.flowRoute(ts.node, part.Tier, write)
		if err != nil {
			e.opFail(ts, ts.pc, op, FailConfig, err)
			return
		}
		if pe := e.cutByFailFast(hops); pe != nil {
			e.opFail(ts, ts.pc, op, FailPartition, pe)
			return
		}
		extraBytes, extraLat := e.linkEffects(hops, ts.task.Name, ts.pc, ts.attempt, part.Bytes, nAcc)
		rem += extraBytes
		extra += extraLat
	}

	e.flowSeq++
	fl := e.newFlow()
	fl.write = write
	fl.rem = rem
	fl.lastT = e.now
	fl.owner = ts
	fl.extra = extra
	fl.started = e.now
	fl.id = e.flowSeq
	st := e.tierFor(part.Tier)
	e.addFlow(st, fl)
	if len(hops) > 0 {
		e.addFlowLinks(fl, hops)
	}
	st.bytes += uint64(part.Bytes)
	e.resettleNet(st, fl)
}

// removeFlow deletes fl from its tier's set by swap-remove and drops the
// direction count. Order does not matter: settle arithmetic is per-flow and
// event sequencing is derived from (time, id) tie-breaks, not list position.
func (e *Engine) removeFlow(fl *flow) {
	st := fl.st
	last := len(st.flows) - 1
	i := fl.idx
	st.flows[i] = st.flows[last]
	st.flows[i].idx = i
	st.flows[last] = nil
	st.flows = st.flows[:last]
	if fl.write {
		st.nw--
	} else {
		st.nr--
	}
	if len(fl.hops) > 0 {
		// Leave the flow's directional links too; fl.hops stays set so the
		// caller can still compute the affected-tier set for repricing.
		e.dropFlowLinks(fl)
	}
}

// finishFlow settles a completed flow, charges its fixed latency, and either
// advances to the next part or lets the task continue.
func (e *Engine) finishFlow(fl *flow) {
	e.removeFlow(fl)
	e.resettleNet(fl.st, fl)
	if fl.ckpt != nil {
		// Checkpoint copies have no owning task: they charge bandwidth
		// through the shared flow machinery but no task-blocking tier time.
		e.finishCkptFlow(fl)
		return
	}
	ts := fl.owner
	fl.st.ttime += e.now - fl.started
	fl.st.ttimeEver = true
	if fl.async {
		if fl.extra > 0 {
			e.schedule(e.now+fl.extra, evAsyncDone, nil, 0, ts)
		} else {
			e.asyncDone(ts)
		}
		return
	}
	ts.partIdx++
	if fl.extra > 0 {
		e.schedule(e.now+fl.extra, evDelayDone, nil, 0, ts)
		return
	}
	e.step(ts)
}

// issueAsyncWrite starts a buffered (write-behind) flow: the filesystem and
// collector effects apply immediately — the data is in the buffer — while
// the tier flow drains in the background and blocks only task completion.
func (e *Engine) issueAsyncWrite(ts *taskState, op *Op) error {
	if op.Bytes <= 0 {
		return nil
	}
	f, err := e.FS.Stat(op.Path)
	if err != nil {
		tier, terr := e.resolveTier(ts, ts.task.CreateTier)
		if terr != nil {
			return terr
		}
		if f, err = e.FS.Create(op.Path, tier.Name); err != nil {
			return err
		}
	}
	if !vfs.VisibleFrom(f.Tier, ts.node) {
		return fmt.Errorf("file on node-local tier %s not visible from node %s", f.Tier.Name, ts.node)
	}
	if err := e.injectedIOErr(ts, f.Tier); err != nil {
		return err
	}
	off := f.Size
	if op.Offset >= 0 {
		off = op.Offset
	}
	if err := e.FS.Extend(op.Path, off+op.Bytes); err != nil {
		return err
	}
	e.noteWrite(ts, op.Path)
	if e.Col != nil {
		e.recordWrite(ts, op, off, 0)
	}
	if e.Trace != nil {
		e.Trace.Event(ts.task.Name, OpWrite, op.Path, off, op.Bytes, e.now, 0)
	}
	chunk := op.Chunk
	if chunk <= 0 {
		chunk = op.Bytes
	}
	nAcc := (op.Bytes + chunk - 1) / chunk
	rem := float64(op.Bytes)
	extra := float64(nAcc) * f.Tier.LatencyS
	var hops []hop
	if e.netOn {
		// Buffered writes never fail fast on a partition cut — the issuing op
		// already completed into the buffer — so the flow stalls and drains
		// after the heal instead.
		hops, err = e.flowRoute(ts.node, f.Tier, true)
		if err != nil {
			return err
		}
		extraBytes, extraLat := e.linkEffects(hops, ts.task.Name, ts.pc, ts.attempt, op.Bytes, nAcc)
		rem += extraBytes
		extra += extraLat
	}
	e.flowSeq++
	fl := e.newFlow()
	fl.write = true
	fl.rem = rem
	fl.lastT = e.now
	fl.owner = ts
	fl.extra = extra
	fl.async = true
	fl.started = e.now
	fl.id = e.flowSeq
	st := e.tierFor(f.Tier)
	e.addFlow(st, fl)
	if len(hops) > 0 {
		e.addFlowLinks(fl, hops)
	}
	st.bytes += uint64(op.Bytes)
	ts.outstanding++
	e.resettleNet(st, fl)
	return nil
}

// asyncDone retires one buffered write; a draining task finishes with its
// last flush.
func (e *Engine) asyncDone(ts *taskState) {
	ts.outstanding--
	if ts.draining && ts.outstanding == 0 {
		e.finishTask(ts)
	}
}

// fairRate computes one direction's per-flow rate: bandwidth scaled by the
// fault window factor, degraded past the saturation knee, divided by the
// sharer count. The arithmetic (ordering included) matches the historical
// per-flow computation bit for bit — the byte-identical gates depend on it.
func fairRate(tier *vfs.Tier, write bool, n int, factor float64) float64 {
	bw := tier.ReadBW
	if write {
		bw = tier.WriteBW
	}
	if bw <= 0 {
		bw = 1e12 // effectively instantaneous
	}
	bw *= factor
	// Client-count saturation: shared filesystems degrade past a knee.
	if tier.DegradeAlpha > 0 && n > tier.DegradeKnee {
		bw /= 1 + tier.DegradeAlpha*float64(n-tier.DegradeKnee)
	}
	return bw / float64(n)
}

// resettle is the tier boundary: it settles every live flow's progress at
// its old rate, reprices from the incrementally maintained reader/writer
// counts (one fairRate computation per direction instead of one per flow),
// and re-aims the tier's single pending completion event at the
// earliest-finishing flow (ties to the lowest flow id) with one in-place
// heap fix. Under an active fault schedule, slowdown windows scale the
// bandwidth and outage windows stall the tier entirely until the
// window-close event resettles it.
//
// Equivalence with the reference implementation (resettleNaive, the
// pre-incremental engine): both settle every flow with identical arithmetic
// at identical boundaries, and both assign the tier's next event a fresh
// sequence number at each boundary, so cross-tier ties resolve in
// last-boundary order and within-tier ties in flow-id order either way.
// TestReshareEquivalence asserts identical Results over randomized
// workloads; the golden stdout/SaveJSON hashes pin the absolute behavior.
func (e *Engine) resettle(st *tierState) {
	if e.naive {
		e.resettleNaive(st)
		return
	}
	if len(st.flows) == 0 {
		if st.ev != nil {
			e.heapRemove(st.ev.idx)
			e.free(st.ev)
			st.ev = nil
		}
		return
	}
	avail := true
	factor := 1.0
	if e.faultsOn {
		avail = e.Faults.Available(st.tier.Name, e.now)
		factor = e.Faults.BandwidthFactor(st.tier.Name, e.now)
	}
	if !avail {
		// Link outage: every flow stalls; the window-end tier-change event
		// resettles and resumes them.
		for _, fl := range st.flows {
			fl.rem -= fl.rate * (e.now - fl.lastT)
			if fl.rem < 0 {
				fl.rem = 0
			}
			fl.lastT = e.now
			fl.rate = 0
		}
		if st.ev != nil {
			e.heapRemove(st.ev.idx)
			e.free(st.ev)
			st.ev = nil
		}
		return
	}
	var rr, wr float64
	if st.nr > 0 {
		rr = fairRate(st.tier, false, st.nr, factor)
	}
	if st.nw > 0 {
		wr = fairRate(st.tier, true, st.nw, factor)
	}
	var best *flow
	var bestT float64
	for _, fl := range st.flows {
		// Settle progress at the old rate.
		fl.rem -= fl.rate * (e.now - fl.lastT)
		if fl.rem < 0 {
			fl.rem = 0
		}
		fl.lastT = e.now
		if fl.write {
			fl.rate = wr
		} else {
			fl.rate = rr
		}
		if len(fl.hops) > 0 {
			fl.rate = e.linkCappedRate(fl, fl.rate)
		}
		var t float64
		if fl.rate > 0 {
			t = e.now + fl.rem/fl.rate
		} else if fl.rem > 0 {
			continue // stalled behind a partition cut; the heal boundary resettles
		} else {
			t = e.now // done; nothing left to transfer
		}
		if best == nil || t < bestT || (t == bestT && fl.id < best.id) {
			best, bestT = fl, t
		}
	}
	if best == nil {
		// Every flow is stalled behind a cut: no completion until a link
		// boundary reprices the tier.
		if st.ev != nil {
			e.heapRemove(st.ev.idx)
			e.free(st.ev)
			st.ev = nil
		}
		return
	}
	if st.ev != nil {
		ev := st.ev
		ev.t, ev.fl = bestT, best
		e.seq++
		ev.seq = e.seq
		e.heapFix(ev.idx)
		return
	}
	ev := e.newEvent()
	ev.t, ev.kind, ev.fl, ev.version, ev.ts, ev.gen = bestT, evFlowDone, best, 0, nil, 0
	e.push(ev)
	st.ev = ev
}

// resettleNaive is the reference fair-share boundary the incremental path
// is tested against: recount both directions, settle and reprice every flow,
// and reschedule every flow's own completion event (staleness-checked via
// fl.version). Flows are visited in creation (id) order, which requires a
// sort here because the live set is swap-remove unordered.
func (e *Engine) resettleNaive(st *tierState) {
	list := append([]*flow(nil), st.flows...)
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	var nr, nw int
	for _, fl := range list {
		if fl.write {
			nw++
		} else {
			nr++
		}
	}
	avail := true
	factor := 1.0
	if e.faultsOn {
		avail = e.Faults.Available(st.tier.Name, e.now)
		factor = e.Faults.BandwidthFactor(st.tier.Name, e.now)
	}
	for _, fl := range list {
		fl.rem -= fl.rate * (e.now - fl.lastT)
		if fl.rem < 0 {
			fl.rem = 0
		}
		fl.lastT = e.now
		fl.version++
		if !avail {
			fl.rate = 0
			continue
		}
		n := nr
		if fl.write {
			n = nw
		}
		fl.rate = fairRate(st.tier, fl.write, n, factor)
		if len(fl.hops) > 0 {
			fl.rate = e.linkCappedRate(fl, fl.rate)
		}
		if fl.rate <= 0 {
			if fl.rem <= 0 {
				e.schedule(e.now, evFlowDone, fl, fl.version, nil)
			}
			continue // stalled behind a partition cut; the heal boundary resettles
		}
		e.schedule(e.now+fl.rem/fl.rate, evFlowDone, fl, fl.version, nil)
	}
}

// completeIOOp records the finished op into the collector and applies its
// filesystem effects.
func (e *Engine) completeIOOp(ts *taskState) error {
	op := &ts.task.Script[ts.pc]
	dur := e.now - ts.opStart
	switch op.Kind {
	case OpRead:
		if e.Col != nil {
			e.recordRead(ts, op, dur)
		}
		if e.Trace != nil {
			off, n := e.resolveReadExtent(ts, op)
			e.Trace.Event(ts.task.Name, OpRead, op.Path, off, n, ts.opStart, dur)
		}
	case OpWrite:
		f, err := e.FS.Stat(op.Path)
		if err != nil {
			return fmt.Errorf("write target vanished: %w", err)
		}
		off := f.Size
		if op.Offset >= 0 {
			off = op.Offset
		}
		if err := e.FS.Extend(op.Path, off+op.Bytes); err != nil {
			return err
		}
		e.noteWrite(ts, op.Path)
		if e.Col != nil {
			e.recordWrite(ts, op, off, dur)
		}
		if e.Trace != nil {
			e.Trace.Event(ts.task.Name, OpWrite, op.Path, off, op.Bytes, ts.opStart, dur)
		}
	case OpStage:
		dst, err := e.resolveTier(ts, op.Tier)
		if err != nil {
			return err
		}
		if _, err := e.FS.Migrate(op.Path, dst.Name); err != nil {
			return err
		}
		e.noteStage(ts, op.Path)
		if e.Trace != nil {
			sz := fileSizeOrZero(e.FS, op.Path)
			e.Trace.Event(ts.task.Name, OpStage, op.Path, 0, sz, ts.opStart, dur)
		}
	}
	return nil
}

// noteWrite records the file's producing flow (the last writer) for
// crash-recovery decisions.
func (e *Engine) noteWrite(ts *taskState, path string) {
	if e.ckptOn {
		e.noteCkptWrite(ts, path)
	}
	if e.prov == nil {
		return
	}
	p := e.prov[path]
	if p == nil {
		p = &fileProv{}
		e.prov[path] = p
	}
	p.producer = ts
	p.stagedFrom = nil
	if prod, lost := e.pendingLost[path]; lost && prod == ts {
		delete(e.pendingLost, path)
	}
}

// noteStage records that the file's current placement was copied off
// another tier; if that tier is shared, the bytes remain re-stageable.
func (e *Engine) noteStage(ts *taskState, path string) {
	if e.prov == nil || ts.stageSrc == nil {
		return
	}
	p := e.prov[path]
	if p == nil {
		p = &fileProv{}
		e.prov[path] = p
	}
	p.stagedFrom = ts.stageSrc
	delete(e.pendingLost, path)
}

// resolveReadExtent recomputes the clamped (offset, length) a read op covered.
func (e *Engine) resolveReadExtent(ts *taskState, op *Op) (int64, int64) {
	f, err := e.FS.Stat(op.Path)
	if err != nil {
		return 0, 0
	}
	off := op.Offset
	if off < 0 {
		off = ts.offsets[op.Path] - op.Bytes
		if off < 0 {
			off = 0
		}
	}
	n := op.Bytes
	if off+n > f.Size {
		n = f.Size - off
	}
	if n < 0 {
		n = 0
	}
	return off, n
}

// recordRead feeds the op's chunk accesses into the collector, spreading
// their timestamps over the op duration.
func (e *Engine) recordRead(ts *taskState, op *Op, dur float64) {
	f, err := e.FS.Stat(op.Path)
	if err != nil {
		return
	}
	off := op.Offset
	if off < 0 {
		off = ts.offsets[op.Path] - op.Bytes
		if off < 0 {
			off = 0
		}
	}
	n := op.Bytes
	if off+n > f.Size {
		n = f.Size - off
	}
	if n <= 0 {
		return
	}
	chunk := op.Chunk
	if chunk <= 0 {
		chunk = n
	}
	rep := op.Repeat
	if rep < 1 {
		rep = 1
	}
	m := (n + chunk - 1) / chunk // chunks per scan
	per := dur / float64(m*int64(rep))
	fl := e.Col.Flow(ts.task.Name, op.Path, f.Size)
	stride := chunk
	if op.Pattern == Strided && op.Stride > 0 {
		stride = op.Stride
	}
	// Sequential scans, and strided ones whose chunks do not overlap and
	// whose last chunk ends inside the file (so no chunk is clamped), charge
	// in closed form: one histogram update per touched block instead of one
	// RecordAccess per chunk.
	last := n - (m-1)*chunk
	if op.Pattern != RandomPattern && (m == 1 || stride >= chunk && stride <= (f.Size-off-last)/(m-1)) {
		fl.RecordStridedChunks(blockstats.Read, off, n, chunk, stride, rep, ts.opStart, per)
		return
	}
	i := int64(0)
	for r := 0; r < rep; r++ {
		for pos := int64(0); pos < n; pos += chunk {
			sz := chunk
			if pos+sz > n {
				sz = n - pos
			}
			loc := off + pos
			switch op.Pattern {
			case Strided:
				if op.Stride > 0 {
					loc = off + (pos/chunk)*op.Stride
					if loc+sz > f.Size {
						loc = f.Size - sz
					}
				}
			case RandomPattern:
				span := n - sz
				if span > 0 {
					loc = off + int64(stats.HashLocation(op.Path, pos/chunk+int64(r)*1e6)%uint64(span))
				}
			}
			fl.RecordAccess(blockstats.Read, loc, sz, ts.opStart+float64(i)*per, per)
			i++
		}
	}
}

// recordWrite feeds the op's chunk writes into the collector.
func (e *Engine) recordWrite(ts *taskState, op *Op, off int64, dur float64) {
	chunk := op.Chunk
	if chunk <= 0 {
		chunk = op.Bytes
	}
	nAcc := (op.Bytes + chunk - 1) / chunk
	per := 0.0
	if nAcc > 0 {
		per = dur / float64(nAcc)
	}
	fl := e.Col.Flow(ts.task.Name, op.Path, 0)
	// Writes are always sequential over [off, off+Bytes): batch-charge them.
	fl.RecordStridedChunks(blockstats.Write, off, op.Bytes, chunk, chunk, 1, ts.opStart, per)
}

// finishTask releases the core, updates stage spans, and wakes dependents.
func (e *Engine) finishTask(ts *taskState) {
	ts.state = tDone
	ts.end = e.now
	cores := ts.task.Cores
	if cores <= 0 {
		cores = 1
	}
	e.nodes[ts.node].freeCores += cores
	e.unfin--
	if ts.rerun {
		// A restarted attempt or producer re-run: its whole duration is
		// recovery cost the fault-free run would not have paid.
		e.result.RecoverySeconds += ts.end - ts.start
		ts.rerun = false
	}
	if e.pendingLost != nil {
		for path, prod := range e.pendingLost {
			if prod == ts {
				delete(e.pendingLost, path)
			}
		}
	}
	if e.ckptOn {
		e.checkpointOutputs(ts)
	}
	if e.Col != nil {
		e.Col.TaskEnded(ts.task.Name, e.now)
	}
	e.result.Tasks[ts.task.Name] = TaskTime{Start: ts.start, End: ts.end, Node: ts.node}
	if tag := ts.task.Stage; tag != "" {
		s, ok := e.result.Stages[tag]
		if !ok {
			s = TaskTime{Start: ts.start, End: ts.end}
		} else {
			if ts.start < s.Start {
				s.Start = ts.start
			}
			if ts.end > s.End {
				s.End = ts.end
			}
		}
		e.result.Stages[tag] = s
	}
	for _, c := range ts.children {
		c.deps--
		if c.deps == 0 && c.state == tWaiting {
			c.state = tReady
			e.ready = append(e.ready, c)
		}
	}
	e.startReady()
}

// resolveTier maps a tier reference to a concrete tier. References:
// "" or "default" → the cluster default; "local:<kind>" → the node-local
// tier of that kind on the task's node; anything else → a tier name.
func (e *Engine) resolveTier(ts *taskState, ref string) (*vfs.Tier, error) {
	return e.Cluster.ResolveTier(e.FS, ref, ts.node)
}
