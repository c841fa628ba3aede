// Package advisor automates the coordination suggestions the paper derives
// manually in its case studies — the direction §8 names as future work
// ("exploring ways to automate suggestions for improved scheduling and
// resource assignment").
//
// Given a measured DFL graph and a cluster description, the advisor:
//
//  1. partitions the DAG into caterpillar threads — near-critical
//     caterpillar trees with high internal producer-consumer locality and
//     few cross-thread edges (§5.1's "parallelize between trees");
//  2. assigns each thread to a node, balancing estimated work;
//  3. classifies every data file as pinned input, thread-local intermediate,
//     or shared, and recommends a tier class for each (local RAM-disk/SSD
//     for thread-local flow, staging copies for hot shared inputs, the
//     parallel filesystem for cross-thread data);
//  4. emits the plan as structured placement rules plus a human-readable
//     rationale that cites the triggering Table 1 opportunities.
package advisor

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/faults"
	"datalife/internal/patterns"
)

// TierClass is the advisor's storage recommendation for a file.
type TierClass uint8

const (
	// SharedFS leaves the file on the cluster-shared filesystem.
	SharedFS TierClass = iota
	// NodeLocal places the file on the owning thread's node-local storage.
	NodeLocal
	// StagedCopy replicates the (read-only) file to every node that
	// consumes it before compute starts.
	StagedCopy
)

func (c TierClass) String() string {
	switch c {
	case NodeLocal:
		return "node-local"
	case StagedCopy:
		return "staged-copy"
	default:
		return "shared-fs"
	}
}

// Thread is one caterpillar thread: a set of tasks with high internal
// locality, to be co-located on one node.
type Thread struct {
	ID int
	// Tasks in deterministic order.
	Tasks []dfl.ID
	// Node assigned by Balance (index into the advisor's node list).
	Node int
	// Work is the estimated thread cost (task lifetimes + flow latency).
	Work float64
	// InternalFlow and ExternalFlow are bytes moved within vs across the
	// thread boundary.
	InternalFlow, ExternalFlow uint64
}

// FilePlacement is the recommendation for one data file.
type FilePlacement struct {
	File dfl.ID
	// Class is the tier recommendation.
	Class TierClass
	// Thread is the owning thread for NodeLocal placements (-1 otherwise).
	Thread int
	// Consumers counts distinct consumer tasks.
	Consumers int
	// Volume is total flow through the file.
	Volume uint64
	// Why cites the triggering observation.
	Why string
	// RerunRisk is the probability the hosting node crashes during the
	// file's DFL lifetime, for volatile (non-shared) placements under
	// Config.CrashesPerHour; 0 when no crash rate is configured or the
	// placement is shared.
	RerunRisk float64
	// RerunCost is the expected virtual seconds of recovery work
	// (producer re-runs weighted by RerunRisk) the placement risks.
	RerunCost float64
}

// Plan is the advisor's full output.
type Plan struct {
	Threads    []Thread
	Placements []FilePlacement
	// TaskNode maps every task to its assigned node index.
	TaskNode map[dfl.ID]int
	// Opportunities are the ranked Table 1 findings the plan responds to.
	Opportunities []patterns.Opportunity
}

// Config tunes the advisor.
type Config struct {
	// Nodes is the number of nodes available for thread placement (>= 1).
	Nodes int
	// CrashesPerHour, when positive, prices volatile-tier placements: each
	// node-local or staged-copy recommendation is annotated with the
	// probability of losing the data to a node crash during its DFL
	// lifetime and the expected re-run cost of recovering it. Zero (the
	// default) disables the annotation.
	CrashesPerHour float64
}

const (
	// stageThreshold: a shared read-only input consumed by at least this
	// many tasks is recommended for per-node staging.
	stageThreshold = 4
	// localityWeight biases thread extraction toward flow volume (1.0) vs
	// task time (0.0). It is typed, so 1-localityWeight is computed from
	// the float64 nearest 0.7 (giving 0.30000000000000004), not as the exact
	// 0.3, which would move every task weight by one ulp.
	localityWeight float64 = 0.7
)

func (c Config) withDefaults() Config {
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	return c
}

// Advise computes a coordination plan for the measured graph.
func Advise(g *dfl.Graph, cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	if !g.IsDAG() {
		return nil, fmt.Errorf("advisor: needs a DFL-DAG (acyclic); aggregate templates are not schedulable")
	}
	threads := ExtractThreads(g)
	BalanceThreads(threads, cfg.Nodes)

	plan := &Plan{Threads: threads, TaskNode: make(map[dfl.ID]int)}
	threadOf := make(map[dfl.ID]int)
	for _, th := range threads {
		for _, t := range th.Tasks {
			threadOf[t] = th.ID
			plan.TaskNode[t] = th.Node
		}
	}
	// Placement scoring and opportunity mining are independent read-only
	// passes over the graph; overlap them. The merge is deterministic: each
	// result lands in its own Plan field.
	opps := make(chan []patterns.Opportunity, 1)
	go func() {
		// Attach the opportunity evidence, narrowed to the primary caterpillar.
		var found []patterns.Opportunity
		if path, err := cpa.CriticalPath(g, cpa.ByVolume, nil); err == nil {
			cat := cpa.DFLCaterpillar(g, path)
			found = patterns.Analyze(g, cat, patterns.Config{})
		}
		opps <- found
	}()
	plan.Placements = placeFiles(g, cfg, threads, threadOf)
	plan.Opportunities = <-opps
	return plan, nil
}

// ExtractThreads partitions tasks into caterpillar threads. Tasks are seeded
// from near-critical paths in weight order; each unclaimed spine task pulls
// in its unclaimed producer/consumer neighbours at distance one (through
// their data vertices), forming a thread. Remaining tasks become singleton
// threads. Linear in V+E per extracted path.
func ExtractThreads(g *dfl.Graph) []Thread {
	weight := func(gr *dfl.Graph, e *dfl.Edge) float64 {
		return localityWeight * float64(e.Props.Volume)
	}
	vweight := func(gr *dfl.Graph, v *dfl.Vertex) float64 {
		return (1 - localityWeight) * v.Task.Lifetime
	}
	numTasks := len(g.Tasks())
	claimed := make(map[dfl.ID]bool)
	var threads []Thread
	addThread := func(tasks []dfl.ID) {
		if len(tasks) == 0 {
			return
		}
		th := Thread{ID: len(threads), Tasks: tasks}
		threads = append(threads, th)
	}

	// Stream near-critical paths in rank order, stopping as soon as every
	// task is claimed: once no task is unclaimed, further paths contribute
	// empty threads, so halting early leaves the output unchanged while
	// skipping reconstruction of the long near-critical tail.
	// (Errors are unreachable for DAGs; on error no paths are yielded and all
	// tasks fall through to singleton threads, as before.)
	_ = cpa.ForEachNearCriticalPath(g, weight, vweight, func(p cpa.Path) bool {
		var tasks []dfl.ID
		claim := func(id dfl.ID) {
			if id.Kind == dfl.TaskVertex && !claimed[id] {
				claimed[id] = true
				tasks = append(tasks, id)
			}
		}
		for _, id := range p.Vertices {
			claim(id)
			if id.Kind != dfl.DataVertex {
				continue
			}
			// Pull in the data vertex's other producers and consumers: the
			// caterpillar legs with direct producer-consumer locality.
			for _, e := range g.In(id) {
				claim(e.Src)
			}
			for _, e := range g.Out(id) {
				claim(e.Dst)
			}
		}
		addThread(tasks)
		return len(claimed) < numTasks
	})
	// Any tasks not reachable from a sink path become singletons.
	for _, v := range g.Tasks() {
		if !claimed[v.ID] {
			claimed[v.ID] = true
			addThread([]dfl.ID{v.ID})
		}
	}

	// Annotate work and flow locality.
	threadOf := make(map[dfl.ID]int)
	for _, th := range threads {
		for _, t := range th.Tasks {
			threadOf[t] = th.ID
		}
	}
	for i := range threads {
		th := &threads[i]
		for _, t := range th.Tasks {
			v := g.Vertex(t)
			th.Work += v.Task.Lifetime + v.Task.ReadLatency + v.Task.WriteLatency
		}
	}
	for _, v := range g.DataFiles() {
		producers := g.Producers(v.ID)
		consumers := g.Consumers(v.ID)
		var vol uint64
		for _, e := range g.In(v.ID) {
			vol += e.Props.Volume
		}
		for _, e := range g.Out(v.ID) {
			vol += e.Props.Volume
		}
		// Scan producers then consumers in place — no concatenated copy.
		home, internal := -2, true
		scan := func(t dfl.ID) {
			id := threadOf[t]
			if home == -2 {
				home = id
			} else if home != id {
				internal = false
			}
		}
		for _, t := range producers {
			scan(t)
		}
		for _, t := range consumers {
			scan(t)
		}
		if home < 0 {
			continue
		}
		if internal {
			threads[home].InternalFlow += vol
		} else {
			for _, t := range producers {
				threads[threadOf[t]].ExternalFlow += vol
			}
			for _, t := range consumers {
				threads[threadOf[t]].ExternalFlow += vol
			}
		}
	}
	return threads
}

// BalanceThreads assigns threads to nodes with longest-processing-time-first
// greedy balancing on estimated work.
func BalanceThreads(threads []Thread, nodes int) {
	if nodes < 1 {
		nodes = 1
	}
	order := make([]int, len(threads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return threads[order[a]].Work > threads[order[b]].Work
	})
	load := make([]float64, nodes)
	for _, ti := range order {
		best := 0
		for n := 1; n < nodes; n++ {
			if load[n] < load[best] {
				best = n
			}
		}
		threads[ti].Node = best
		load[best] += threads[ti].Work
	}
}

// placeFilesParallelMin is the file count below which placement scoring stays
// sequential; tiny graphs don't amortize the worker handoff.
const placeFilesParallelMin = 64

// placeFiles classifies every data vertex. Scoring is embarrassingly parallel
// — each file's placement depends only on the (read-only) graph and thread
// map — so large graphs fan the per-file work across a worker pool. The merge
// is deterministic: worker i writes slot i of a pre-sized slice, and the
// final sort sees the exact sequence the sequential loop produced.
func placeFiles(g *dfl.Graph, cfg Config, threads []Thread, threadOf map[dfl.ID]int) []FilePlacement {
	nodeOfThread := make(map[int]int, len(threads))
	for _, th := range threads {
		nodeOfThread[th.ID] = th.Node
	}
	files := g.DataFiles()
	if len(files) == 0 {
		return nil
	}
	out := make([]FilePlacement, len(files))
	score := func(i int) {
		v := files[i]
		producers := g.Producers(v.ID)
		consumers := g.Consumers(v.ID)
		var vol uint64
		for _, e := range g.In(v.ID) {
			vol += e.Props.Volume
		}
		for _, e := range g.Out(v.ID) {
			vol += e.Props.Volume
		}
		fp := FilePlacement{File: v.ID, Thread: -1, Consumers: len(consumers), Volume: vol}

		// Which nodes touch this file? Scan producers then consumers in
		// place — no concatenated copy.
		nodes := make(map[int]struct{})
		sameThread := true
		home := -1
		touch := func(t dfl.ID) {
			th := threadOf[t]
			if home == -1 {
				home = th
			} else if th != home {
				sameThread = false
			}
			nodes[nodeOfThread[th]] = struct{}{}
		}
		for _, t := range producers {
			touch(t)
		}
		for _, t := range consumers {
			touch(t)
		}
		switch {
		case len(producers) == 0 && len(consumers) >= stageThreshold:
			// Read-only input with wide fan-out: the 1000 Genomes columns
			// pattern — stage a copy per consuming node.
			fp.Class = StagedCopy
			fp.Why = fmt.Sprintf("read-only input with %d consumers across %d node(s): duplicated, congested flow",
				len(consumers), len(nodes))
		case home >= 0 && sameThread:
			fp.Class = NodeLocal
			fp.Thread = home
			fp.Why = fmt.Sprintf("all producer-consumer flow stays inside thread %d", home)
		case len(nodes) == 1 && home >= 0:
			// Different threads, but balanced onto the same node.
			fp.Class = NodeLocal
			fp.Thread = home
			fp.Why = "all accessing threads share one node"
		default:
			fp.Class = SharedFS
			fp.Why = fmt.Sprintf("crosses %d node(s); keep on shared storage", len(nodes))
		}
		if cfg.CrashesPerHour > 0 && fp.Class != SharedFS {
			// Volatile placement: price the crash exposure over the file's
			// lifetime window. Losing the data forces either a re-stage or a
			// producer re-run, so the expected cost is the producers'
			// execution time weighted by the crash probability.
			fp.RerunRisk = faults.CrashProbability(cfg.CrashesPerHour, v.Data.Lifetime)
			var rerun float64
			for _, t := range producers {
				rerun += g.Vertex(t).Task.Lifetime
			}
			fp.RerunCost = fp.RerunRisk * rerun
		}
		out[i] = fp
	}
	if len(files) < placeFilesParallelMin {
		for i := range files {
			score(i)
		}
	} else {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(files) {
			workers = len(files)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(files) {
						return
					}
					score(i)
				}
			}()
		}
		wg.Wait()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Volume > out[j].Volume })
	return out
}

// Report renders the plan.
func (p *Plan) Report(limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "advisor plan: %d threads\n", len(p.Threads))
	for _, th := range p.Threads {
		loc := 1.0
		if tot := th.InternalFlow + th.ExternalFlow; tot > 0 {
			loc = float64(th.InternalFlow) / float64(tot)
		}
		fmt.Fprintf(&b, "  thread %d -> node %d: %d tasks, work %.3gs, locality %.0f%%\n",
			th.ID, th.Node, len(th.Tasks), th.Work, 100*loc)
	}
	b.WriteString("file placements (by volume):\n")
	n := limit
	if n <= 0 || n > len(p.Placements) {
		n = len(p.Placements)
	}
	for _, fp := range p.Placements[:n] {
		fmt.Fprintf(&b, "  %-40s %-12s %s\n", fp.File.Name, fp.Class, fp.Why)
		if fp.RerunRisk > 0 {
			fmt.Fprintf(&b, "  %-40s %-12s volatile: %.2f%% crash exposure over lifetime, expected re-run cost %.3gs\n",
				"", "", 100*fp.RerunRisk, fp.RerunCost)
		}
	}
	if len(p.Opportunities) > 0 {
		b.WriteString(patterns.Report("supporting opportunities:", p.Opportunities, 5))
	}
	return b.String()
}

// LocalityScore summarizes the plan: the fraction of total flow volume that
// stays node-local under the plan (higher is better).
func (p *Plan) LocalityScore(g *dfl.Graph) float64 {
	// A flow is local when the file is NodeLocal/StagedCopy or all accessing
	// tasks share the file's node.
	class := make(map[dfl.ID]TierClass, len(p.Placements))
	for _, fp := range p.Placements {
		class[fp.File] = fp.Class
	}
	var local, total uint64
	for _, e := range g.Edges() {
		total += e.Props.Volume
		data := e.Src
		if data.Kind != dfl.DataVertex {
			data = e.Dst
		}
		if class[data] != SharedFS {
			local += e.Props.Volume
		}
	}
	if total == 0 {
		return 0
	}
	return float64(local) / float64(total)
}
