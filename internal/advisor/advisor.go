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
	"sort"
	"strings"

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
	// Opportunities are the ranked Table 1 findings the plan responds to.
	Opportunities []patterns.Opportunity

	// slots holds each placement's data slot on the snapshot Advise read.
	// LocalityScore trusts a slot only where it still names the placement's
	// file on the graph's current snapshot.
	slots []int32
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
	if n := sameKindEdges(g.Index()); n > 0 {
		return nil, fmt.Errorf("advisor: needs a DFL-DAG; %d edges do not join a task and a data vertex", n)
	}
	threads, threadOf, ix := extractThreads(g)
	BalanceThreads(threads, cfg.Nodes)

	plan := &Plan{Threads: threads}
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
	plan.Placements, plan.slots = placeFileSlots(ix, cfg, threads, threadOf)
	plan.Opportunities = <-opps
	return plan, nil
}

// sameKindEdges counts the edges that join two tasks or two data vertices,
// which only dfl.Graph.AddUncheckedEdge can add. Thread extraction assumes
// there are none.
func sameKindEdges(ix *dfl.Index) int {
	n := 0
	for p := int32(0); p < int32(ix.Len()); p++ {
		kind := ix.IDAt(p).Kind
		_, dsts := ix.Out(p)
		for _, q := range dsts {
			if ix.IDAt(q).Kind == kind {
				n++
			}
		}
	}
	return n
}

// ExtractThreads partitions tasks into caterpillar threads. Tasks are seeded
// from near-critical paths in weight order; each unclaimed spine task pulls
// in its unclaimed producer/consumer neighbours at distance one (through
// their data vertices), forming a thread. Remaining tasks become singleton
// threads. O(V+E) over the whole ranked path set: see extractThreads.
func ExtractThreads(g *dfl.Graph) []Thread {
	threads, _, _ := extractThreads(g)
	return threads
}

// extractThreads is ExtractThreads over the graph's dense slots. It also
// returns the snapshot it read and each slot's thread (0 for non-task slots,
// which no thread claims).
//
// The ranked paths overlap heavily: on a layered DAG a path shares all but
// a short suffix with an earlier one. Paths of different sinks that meet
// share the whole predecessor chain before the meeting slot, and that chain
// lay on the earlier path, so its tasks are claimed and its data vertices
// expanded already. Each path therefore walks back only to the first slot an
// earlier path contains and claims the new suffix from source to sink, in the
// order walking the whole path would: every predecessor link is followed at
// most once, and every data vertex expanded at most once.
func extractThreads(g *dfl.Graph) ([]Thread, []int32, *dfl.Index) {
	weight := func(gr *dfl.Graph, e *dfl.Edge) float64 {
		return localityWeight * float64(e.Props.Volume)
	}
	vweight := func(gr *dfl.Graph, v *dfl.Vertex) float64 {
		return (1 - localityWeight) * v.Task.Lifetime
	}
	ix := g.Index()
	n := ix.Len()
	numTasks := 0
	for p := int32(0); p < int32(n); p++ {
		if ix.IDAt(p).Kind == dfl.TaskVertex {
			numTasks++
		}
	}
	claimed := make([]bool, n)
	threadOf := make([]int32, n)
	var threads []Thread
	var cur *Thread
	claim := func(p int32) {
		if claimed[p] || ix.IDAt(p).Kind != dfl.TaskVertex {
			return
		}
		if cur == nil {
			threads = append(threads, Thread{ID: len(threads)})
			cur = &threads[len(threads)-1]
		}
		claimed[p] = true
		threadOf[p] = int32(cur.ID)
		numTasks--
		v := ix.VertexAt(p)
		cur.Tasks = append(cur.Tasks, v.ID)
		cur.Work += v.Task.Lifetime + v.Task.ReadLatency + v.Task.WriteLatency
	}

	// Errors are unreachable for DAGs; on error there are no paths and all
	// tasks fall through to singleton threads.
	if dp, err := cpa.SolvePaths(g, weight, vweight); err == nil {
		onPath := make([]bool, n)
		var suffix []int32
		// Once every task is claimed, further paths would form empty threads.
		for _, s := range dp.Sinks {
			if numTasks == 0 {
				break
			}
			suffix = suffix[:0]
			for p := s; p >= 0 && !onPath[p]; p = dp.Pred[p] {
				onPath[p] = true
				suffix = append(suffix, p)
			}
			cur = nil
			for i := len(suffix) - 1; i >= 0; i-- {
				p := suffix[i]
				claim(p)
				if ix.IDAt(p).Kind != dfl.DataVertex {
					continue
				}
				// Pull in the data vertex's other producers and consumers: the
				// caterpillar legs with direct producer-consumer locality.
				_, srcs := ix.In(p)
				for _, q := range srcs {
					claim(q)
				}
				_, dsts := ix.Out(p)
				for _, q := range dsts {
					claim(q)
				}
			}
		}
	}
	// Any tasks not reachable from a sink path become singletons, in ID
	// order.
	var rest []int32
	for p := int32(0); p < int32(n); p++ {
		if !claimed[p] && ix.IDAt(p).Kind == dfl.TaskVertex {
			rest = append(rest, p)
		}
	}
	ix.SortByID(rest)
	for _, p := range rest {
		cur = nil
		claim(p)
	}

	// Flow locality: a file's flow is internal to a thread when every task
	// touching it belongs to that thread; otherwise it counts as external for
	// each distinct producer and each distinct consumer. Sums of integers, so
	// the file order does not matter. Every task is claimed by now and no
	// other vertex is, so claimed picks out the task peers: on a DFL graph
	// all of a file's peers, but a file→file edge (AddUncheckedEdge) has a
	// data peer, which belongs to no thread, and a file with no task peer
	// adds to no thread.
	seen := make([]int32, n) // the last 2*file+set+1 stamp that reached each slot
	for d := int32(0); d < int32(n); d++ {
		if ix.IDAt(d).Kind != dfl.DataVertex {
			continue
		}
		inE, srcs := ix.In(d)
		outE, dsts := ix.Out(d)
		home, internal := int32(-1), true
		for _, peers := range [2][]int32{srcs, dsts} {
			for _, q := range peers {
				if !claimed[q] {
					continue
				}
				if home < 0 {
					home = threadOf[q]
				} else if threadOf[q] != home {
					internal = false
				}
			}
		}
		if home < 0 {
			continue
		}
		var vol uint64
		for _, e := range inE {
			vol += e.Props.Volume
		}
		for _, e := range outE {
			vol += e.Props.Volume
		}
		if internal {
			threads[home].InternalFlow += vol
			continue
		}
		for set, peers := range [2][]int32{srcs, dsts} {
			stamp := 2*d + int32(set) + 1
			for _, q := range peers {
				if claimed[q] && seen[q] != stamp {
					seen[q] = stamp
					threads[threadOf[q]].ExternalFlow += vol
				}
			}
		}
	}
	return threads, threadOf, ix
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

// placeFiles is placeFileSlots without the slots.
func placeFiles(ix *dfl.Index, cfg Config, threads []Thread, threadOf []int32) []FilePlacement {
	out, _ := placeFileSlots(ix, cfg, threads, threadOf)
	return out
}

// placeFileSlots classifies every data vertex of the snapshot, given each
// slot's thread, and returns the placements by descending volume with each
// one's slot. The volume sort is not stable, so the order it starts from is
// part of the output: it sorts a permutation of the files in ID order, which
// gives the order sorting the placements themselves from ID order would,
// and the placements are then built in that order.
func placeFileSlots(ix *dfl.Index, cfg Config, threads []Thread, threadOf []int32) ([]FilePlacement, []int32) {
	var files []int32
	for p := int32(0); p < int32(ix.Len()); p++ {
		if ix.IDAt(p).Kind == dfl.DataVertex {
			files = append(files, p)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	ix.SortByID(files)
	vols := make([]uint64, len(files))
	for i, d := range files {
		inE, _ := ix.In(d)
		outE, _ := ix.Out(d)
		for _, e := range inE {
			vols[i] += e.Props.Volume
		}
		for _, e := range outE {
			vols[i] += e.Props.Volume
		}
	}
	slots := make([]int32, len(files)) // a permutation of the file indices, then their slots
	for i := range slots {
		slots[i] = int32(i)
	}
	sort.Slice(slots, func(a, b int) bool { return vols[slots[a]] > vols[slots[b]] })
	out := make([]FilePlacement, len(files))
	seen := make([]int32, ix.Len())      // distinct-peer stamps: 2*k+1 consumers, 2*k+2 producers
	nodeSeen := make([]int32, cfg.Nodes) // the last k+1 that touched each node
	var producers []int32
	for k, fi := range slots {
		d := files[fi]
		slots[k] = d
		vol := vols[fi]
		v := ix.VertexAt(d)
		_, srcs := ix.In(d)
		_, dsts := ix.Out(d)
		consumers := 0
		for _, q := range dsts {
			if seen[q] != int32(2*k+1) {
				seen[q] = int32(2*k + 1)
				consumers++
			}
		}
		fp := FilePlacement{File: v.ID, Thread: -1, Consumers: consumers, Volume: vol}

		// Which nodes touch this file, and do its tasks share one thread?
		nodes, sameThread, home := 0, true, int32(-1)
		for _, peers := range [2][]int32{srcs, dsts} {
			for _, q := range peers {
				th := threadOf[q]
				if home < 0 {
					home = th
				} else if th != home {
					sameThread = false
				}
				if nd := threads[th].Node; nodeSeen[nd] != int32(k+1) {
					nodeSeen[nd] = int32(k + 1)
					nodes++
				}
			}
		}
		switch {
		case len(srcs) == 0 && consumers >= stageThreshold:
			// Read-only input with wide fan-out: the 1000 Genomes columns
			// pattern — stage a copy per consuming node.
			fp.Class = StagedCopy
			fp.Why = stagedWhy(consumers, nodes)
		case home >= 0 && sameThread:
			fp.Class = NodeLocal
			fp.Thread = int(home)
			fp.Why = threadWhy(int(home))
		case nodes == 1 && home >= 0:
			// Different threads, but balanced onto the same node. The plan
			// names the thread of the first task in ID order.
			fp.Class = NodeLocal
			fp.Thread = int(threadOf[firstByID(ix, srcs, dsts)])
			fp.Why = "all accessing threads share one node"
		default:
			fp.Class = SharedFS
			fp.Why = sharedWhy(nodes)
		}
		if cfg.CrashesPerHour > 0 && fp.Class != SharedFS {
			// Volatile placement: price the crash exposure over the file's
			// lifetime window. Losing the data forces either a re-stage or a
			// producer re-run, so the expected cost is the producers'
			// execution time weighted by the crash probability, summed in ID
			// order because float addition depends on order.
			fp.RerunRisk = faults.CrashProbability(cfg.CrashesPerHour, v.Data.Lifetime)
			producers = producers[:0]
			for _, q := range srcs {
				if seen[q] != int32(2*k+2) {
					seen[q] = int32(2*k + 2)
					producers = append(producers, q)
				}
			}
			ix.SortByID(producers)
			var rerun float64
			for _, q := range producers {
				rerun += ix.VertexAt(q).Task.Lifetime
			}
			fp.RerunCost = fp.RerunRisk * rerun
		}
		out[k] = fp
	}
	return out, slots
}

// firstByID returns the producer with the smallest ID, or the consumer with
// the smallest ID when there is no producer: the first task a scan of the
// sorted producer and consumer sets meets.
func firstByID(ix *dfl.Index, srcs, dsts []int32) int32 {
	peers := srcs
	if len(peers) == 0 {
		peers = dsts
	}
	first := peers[0]
	for _, q := range peers[1:] {
		if ix.IDAt(q).Compare(ix.IDAt(first)) < 0 {
			first = q
		}
	}
	return first
}

// Report renders the plan.
func (p *Plan) Report(limit int) string {
	var b strings.Builder
	b.Grow(64 * (len(p.Threads) + 8))
	fmt.Fprintf(&b, "advisor plan: %d threads\n", len(p.Threads))
	var line [96]byte
	for i := range p.Threads {
		th := &p.Threads[i]
		loc := 1.0
		if tot := th.InternalFlow + th.ExternalFlow; tot > 0 {
			loc = float64(th.InternalFlow) / float64(tot)
		}
		b.Write(appendThreadLine(line[:0], th.ID, th.Node, len(th.Tasks), th.Work, 100*loc))
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
	// A flow is local when its file is placed NodeLocal or StagedCopy. One
	// pass over the out-edges with a class per slot; the sums are integers,
	// so the edge order does not matter.
	ix := g.Index()
	class := make([]TierClass, ix.Len())
	for k, fp := range p.Placements {
		s := int32(-1)
		if k < len(p.slots) {
			s = p.slots[k]
		}
		if s < 0 || int(s) >= ix.Len() || ix.IDAt(s) != fp.File {
			s = ix.Pos(fp.File)
		}
		if s >= 0 {
			class[s] = fp.Class
		}
	}
	var local, total uint64
	for s := int32(0); s < int32(len(class)); s++ {
		srcIsData := ix.IDAt(s).Kind == dfl.DataVertex
		edges, dsts := ix.Out(s)
		for k, e := range edges {
			total += e.Props.Volume
			data := dsts[k]
			if srcIsData {
				data = s
			}
			if class[data] != SharedFS {
				local += e.Props.Volume
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(local) / float64(total)
}
