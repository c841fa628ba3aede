package sim

import (
	"fmt"
	"math"
	"sort"

	"datalife/internal/faults"
	"datalife/internal/vfs"
)

// Link is one network edge between two named topology locations. Each
// direction has its own (asymmetric) bandwidth, and every traversal charges
// the link's latency — plus a deterministic, seeded jitter draw — once per
// chunk access, exactly like tier latency. LossRate is the per-chunk
// probability a chunk must be retransmitted; every draw is a pure hash of
// (seed, link, task, op, attempt, round, chunk), so replays stay
// bit-identical.
type Link struct {
	// Name identifies the link in fault specs (degrade=, loss=) and results.
	Name string
	// A and B are the two location names the link joins.
	A, B string
	// LatencyS is the one-way latency in seconds, charged per chunk access.
	LatencyS float64
	// JitterS bounds the extra per-flow latency: each flow adds a seeded
	// uniform draw in [0, JitterS) on top of LatencyS.
	JitterS float64
	// LossRate is the per-chunk loss probability in [0, 1). Lost chunks are
	// retransmitted (re-drawn per round), inflating the flow's bytes and
	// charging one extra link latency per retransmission.
	LossRate float64
	// BWAB and BWBA are the A→B and B→A bandwidths in bytes/s shared
	// fairly among the flows crossing in that direction; 0 means
	// unconstrained.
	BWAB, BWBA float64
}

// Topology places the cluster's nodes and storage tiers at named locations
// (node, rack, cluster, site — any granularity) joined by Links, and routes
// every flow between a task's node and its target tier over the shortest
// link path. A link is just another capacity: the engine's incremental
// O(affected) fair-share repricing shares each direction among its crossing
// flows and composes the result with the tier's own fair share.
//
// A nil Topology — or a Trivial one with no network fault clauses — leaves
// every engine code path, and therefore every output byte, identical to an
// un-networked run.
type Topology struct {
	// Links is the edge set. Locations are defined implicitly by the
	// endpoints named here.
	Links []*Link
	// NodeLoc maps node name to its location; unmapped nodes live at
	// DefaultLoc.
	NodeLoc map[string]string
	// TierLoc maps tier name to its location. Unmapped tiers fall back to
	// the tier's own Location field, then (for node-local tiers) to their
	// node's location, then to DefaultLoc.
	TierLoc map[string]string
	// DefaultLoc is the location of anything not explicitly placed. Two
	// unmapped endpoints are co-located and exchange data without touching
	// any link.
	DefaultLoc string
	// Seed keys the topology's intrinsic jitter and loss draws; it is
	// XOR-combined with the fault schedule's seed when one is active.
	Seed uint64
}

// Validate checks link sanity: unique non-empty names, distinct endpoints,
// non-negative latency/jitter, loss in [0, 1), non-negative bandwidth.
func (tp *Topology) Validate() error {
	seen := make(map[string]bool, len(tp.Links))
	for _, l := range tp.Links {
		if l == nil || l.Name == "" {
			return fmt.Errorf("topology: link with empty name")
		}
		if seen[l.Name] {
			return fmt.Errorf("topology: duplicate link name %q", l.Name)
		}
		seen[l.Name] = true
		if l.A == "" || l.B == "" || l.A == l.B {
			return fmt.Errorf("topology: link %s must join two distinct locations (%q, %q)", l.Name, l.A, l.B)
		}
		if l.LatencyS < 0 || math.IsNaN(l.LatencyS) || l.JitterS < 0 || math.IsNaN(l.JitterS) {
			return fmt.Errorf("topology: link %s has invalid latency/jitter %v/%v", l.Name, l.LatencyS, l.JitterS)
		}
		if !(l.LossRate >= 0) || l.LossRate >= 1 {
			return fmt.Errorf("topology: link %s has loss rate %v outside [0,1)", l.Name, l.LossRate)
		}
		if l.BWAB < 0 || math.IsNaN(l.BWAB) || l.BWBA < 0 || math.IsNaN(l.BWBA) {
			return fmt.Errorf("topology: link %s has invalid bandwidth %v/%v", l.Name, l.BWAB, l.BWBA)
		}
	}
	return nil
}

// Trivial reports whether no link can influence any flow: zero latency,
// jitter, and loss, unconstrained bandwidth in both directions. The engine
// skips routing entirely for a trivial topology with no network fault
// clauses, which is what makes the fault-free path provably byte-identical
// rather than identical-up-to-float-noise.
func (tp *Topology) Trivial() bool {
	for _, l := range tp.Links {
		if l.LatencyS != 0 || l.JitterS != 0 || l.LossRate != 0 || l.BWAB > 0 || l.BWBA > 0 {
			return false
		}
	}
	return true
}

// linkJoins reports whether the link directly connects the unordered
// location pair (a, b) — the definition of "cut by partition=a|b".
func linkJoins(l *Link, a, b string) bool {
	return (l.A == a && l.B == b) || (l.A == b && l.B == a)
}

// linkDir is one direction of a link's runtime state: the flows currently
// crossing it, which share that direction's bandwidth equally.
type linkDir struct {
	flows []*flow
}

// linkState is a link's complete runtime state: both directional flow sets
// plus the result accumulators (flushed once at the end of the run).
type linkState struct {
	link    *Link
	dir     [2]linkDir // 0: A→B, 1: B→A
	bytes   uint64     // payload bytes routed over the link, both directions
	retrans uint64     // extra bytes re-sent after per-chunk loss
	lost    uint64     // chunks lost and retransmitted
}

// hop is one directed traversal of a link on a flow's route.
type hop struct {
	ls  *linkState
	fwd bool // true when traversing A→B
}

func (h hop) dir() *linkDir {
	if h.fwd {
		return &h.ls.dir[0]
	}
	return &h.ls.dir[1]
}

// adjEdge is one directed adjacency-list entry for route search.
type adjEdge struct {
	to  string
	ls  *linkState
	fwd bool
}

// initTopology validates the topology and any network fault clauses against
// it, builds the per-link runtime state, and schedules the link fault-window
// boundary events. With a nil topology — or a trivial one and no network
// clauses — it leaves the engine byte-identical to an un-networked run: no
// routing state, no extra events, no extra branches taken.
func (e *Engine) initTopology() error {
	e.netOn = false
	e.links, e.adj, e.routes = nil, nil, nil
	hasNet := e.faultsOn && e.Faults.HasNetworkFaults()
	tp := e.Topology
	if tp == nil {
		if hasNet {
			return fmt.Errorf("sim: fault schedule has partition/degrade/loss clauses but no Topology is attached")
		}
		return nil
	}
	if err := tp.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if !hasNet && tp.Trivial() {
		return nil
	}
	e.netOn = true
	e.netSeed = tp.Seed
	if e.faultsOn {
		e.netSeed ^= e.Faults.Seed
	}
	e.links = make(map[string]*linkState, len(tp.Links))
	e.adj = make(map[string][]adjEdge)
	e.routes = make(map[[2]string][]hop)
	for _, l := range tp.Links {
		ls := &linkState{link: l}
		e.links[l.Name] = ls
		e.adj[l.A] = append(e.adj[l.A], adjEdge{to: l.B, ls: ls, fwd: true})
		e.adj[l.B] = append(e.adj[l.B], adjEdge{to: l.A, ls: ls, fwd: false})
	}
	// Sorted adjacency makes the BFS tie-break — and therefore every route —
	// a pure function of the topology.
	for _, edges := range e.adj {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].to != edges[j].to {
				return edges[i].to < edges[j].to
			}
			return edges[i].ls.link.Name < edges[j].ls.link.Name
		})
	}
	if !e.faultsOn {
		return nil
	}
	// Network clauses must name real links / cuttable location pairs.
	for _, d := range e.Faults.LinkDegrades {
		if e.links[d.Link] == nil {
			return fmt.Errorf("sim: fault schedule degrades unknown link %q", d.Link)
		}
	}
	lossLinks := make([]string, 0, len(e.Faults.LinkLoss))
	for name := range e.Faults.LinkLoss {
		lossLinks = append(lossLinks, name)
	}
	sort.Strings(lossLinks)
	for _, name := range lossLinks {
		if e.links[name] == nil {
			return fmt.Errorf("sim: fault schedule injects loss on unknown link %q", name)
		}
	}
	for _, p := range e.Faults.Partitions {
		cuts := false
		for _, l := range tp.Links {
			if linkJoins(l, p.A, p.B) {
				cuts = true
				break
			}
		}
		if !cuts {
			return fmt.Errorf("sim: partition %s|%s cuts no link in the topology", p.A, p.B)
		}
	}
	// One boundary event per (link, time), links in name order for
	// deterministic event sequencing.
	names := make([]string, 0, len(e.links))
	for name := range e.links {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := e.links[name]
		set := make(map[float64]struct{})
		for _, d := range e.Faults.LinkDegrades {
			if d.Link == name {
				set[d.Start] = struct{}{}
				set[d.End] = struct{}{}
			}
		}
		for _, p := range e.Faults.Partitions {
			if linkJoins(ls.link, p.A, p.B) {
				set[p.Start] = struct{}{}
				set[p.End] = struct{}{}
			}
		}
		times := make([]float64, 0, len(set))
		for t := range set {
			times = append(times, t)
		}
		sort.Float64s(times)
		for _, t := range times {
			e.scheduleLinkChange(t, ls)
		}
	}
	return nil
}

// locOfNode returns a node's topology location.
func (e *Engine) locOfNode(node string) string {
	if l, ok := e.Topology.NodeLoc[node]; ok {
		return l
	}
	return e.Topology.DefaultLoc
}

// locOfTier returns a tier's topology location: the TierLoc override, then
// the tier's own Location field, then (node-local tiers) its node's
// location, then DefaultLoc.
func (e *Engine) locOfTier(t *vfs.Tier) string {
	tp := e.Topology
	if l, ok := tp.TierLoc[t.Name]; ok {
		return l
	}
	if t.Location != "" {
		return t.Location
	}
	if t.Node != "" {
		return e.locOfNode(t.Node)
	}
	return tp.DefaultLoc
}

// route returns the deterministic shortest link path between two locations:
// fewest links, ties broken by lexicographic (location, link name)
// exploration order. Paths are cached per ordered location pair.
func (e *Engine) route(from, to string) ([]hop, error) {
	if from == to {
		return nil, nil
	}
	key := [2]string{from, to}
	if r, ok := e.routes[key]; ok {
		return r, nil
	}
	type crumb struct {
		prev string
		edge adjEdge
	}
	par := make(map[string]crumb)
	visited := map[string]bool{from: true}
	queue := []string{from}
	found := false
	for i := 0; i < len(queue) && !found; i++ {
		loc := queue[i]
		for _, ed := range e.adj[loc] {
			if visited[ed.to] {
				continue
			}
			visited[ed.to] = true
			par[ed.to] = crumb{prev: loc, edge: ed}
			if ed.to == to {
				found = true
				break
			}
			queue = append(queue, ed.to)
		}
	}
	if !found {
		return nil, fmt.Errorf("sim: no network route from location %q to %q", from, to)
	}
	var rev []hop
	for loc := to; loc != from; {
		c := par[loc]
		rev = append(rev, hop{ls: c.edge.ls, fwd: c.edge.fwd})
		loc = c.prev
	}
	hops := make([]hop, len(rev))
	for i := range rev {
		hops[i] = rev[len(rev)-1-i]
	}
	e.routes[key] = hops
	return hops, nil
}

// flowRoute returns the link path one part's data crosses: reads travel
// tier→node, writes node→tier.
func (e *Engine) flowRoute(node string, tier *vfs.Tier, write bool) ([]hop, error) {
	nl := e.locOfNode(node)
	tl := e.locOfTier(tier)
	if write {
		return e.route(nl, tl)
	}
	return e.route(tl, nl)
}

// addFlowLinks registers the flow with every directional link on its route.
func (e *Engine) addFlowLinks(fl *flow, hops []hop) {
	fl.hops = hops
	fl.hopIdx = make([]int, len(hops))
	for i, h := range hops {
		d := h.dir()
		fl.hopIdx[i] = len(d.flows)
		d.flows = append(d.flows, fl)
	}
}

// dropFlowLinks removes the flow from its directional links by swap-remove,
// fixing the moved flow's index entry for the same link. fl.hops stays set
// so callers can still compute the affected-tier set after removal.
func (e *Engine) dropFlowLinks(fl *flow) {
	for i, h := range fl.hops {
		d := h.dir()
		idx := fl.hopIdx[i]
		last := len(d.flows) - 1
		moved := d.flows[last]
		d.flows[idx] = moved
		d.flows[last] = nil
		d.flows = d.flows[:last]
		if moved != fl {
			for j, mh := range moved.hops {
				if mh.ls == h.ls && mh.fwd == h.fwd {
					moved.hopIdx[j] = idx
					break
				}
			}
		}
	}
}

// affectedTiers collects, in sorted tier-name order, the primary tier plus
// every tier with a flow sharing one of the given directional links — the
// O(affected) set a link membership or window change reprices.
func (e *Engine) affectedTiers(primary *tierState, hops []hop) []*tierState {
	seen := make(map[*tierState]bool, 4)
	var out []*tierState
	add := func(t *tierState) {
		if t != nil && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	add(primary)
	for _, h := range hops {
		for _, f := range h.dir().flows {
			add(f.st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].tier.Name < out[j].tier.Name })
	return out
}

// resettleNet is the link-aware resettle: a flow with no hops reprices only
// its own tier (the un-networked fast path); a routed flow reprices every
// affected tier, because its arrival or departure changed the member count
// of each link direction it crosses.
func (e *Engine) resettleNet(st *tierState, fl *flow) {
	if len(fl.hops) == 0 {
		e.resettle(st)
		return
	}
	for _, t := range e.affectedTiers(st, fl.hops) {
		e.resettle(t)
	}
}

// linkCappedRate composes the flow's link path with its tier fair-share
// rate: each directional link contributes bandwidth × degrade-factor ÷
// member count, and the flow runs at the minimum. An active partition cut
// on any hop stalls the flow at rate 0 until the heal boundary reprices it.
func (e *Engine) linkCappedRate(fl *flow, rate float64) float64 {
	for _, h := range fl.hops {
		l := h.ls.link
		if e.faultsOn {
			if cut, _ := e.Faults.PartitionState(l.A, l.B, e.now); cut {
				if !fl.stalled {
					fl.stalled = true
					e.result.PartitionStalls++
				}
				return 0
			}
		}
		bw := l.BWAB
		if !h.fwd {
			bw = l.BWBA
		}
		if bw <= 0 {
			continue // unconstrained direction
		}
		if e.faultsOn {
			bw *= e.Faults.LinkFactor(l.Name, e.now)
		}
		if r := bw / float64(len(h.dir().flows)); r < rate {
			rate = r
		}
	}
	fl.stalled = false
	return rate
}

// cutByFailFast returns the partition error for the first hop crossing an
// active fail-fast cut, or nil. Ops that would start across such a cut fail
// immediately (typed, retryable) instead of stalling.
func (e *Engine) cutByFailFast(hops []hop) *PartitionError {
	if !e.faultsOn {
		return nil
	}
	for _, h := range hops {
		l := h.ls.link
		if cut, ff := e.Faults.PartitionState(l.A, l.B, e.now); cut && ff {
			return &PartitionError{A: l.A, B: l.B, Link: l.Name}
		}
	}
	return nil
}

// linkEffects charges one part's traversal of its route: per-access latency
// plus a seeded jitter draw per link, per-chunk loss retransmissions
// (seeded, coordinate-hashed, re-drawn per round), and the link byte
// accounting. It returns the extra bytes the flow must carry and the extra
// fixed latency it pays.
func (e *Engine) linkEffects(hops []hop, task string, opIdx, attempt int, bytes, nAcc int64) (extraBytes, extraLat float64) {
	for _, h := range hops {
		l := h.ls.link
		lat := l.LatencyS
		if l.JitterS > 0 {
			lat += l.JitterS * faults.LinkJitter(e.netSeed, l.Name, task, opIdx, attempt)
		}
		extraLat += float64(nAcc) * lat
		h.ls.bytes += uint64(bytes)
		p := l.LossRate
		if e.faultsOn {
			if fp := e.Faults.LinkLossRate(l.Name); fp > 0 {
				p = 1 - (1-p)*(1-fp)
			}
		}
		if p > 0 && nAcc > 0 && bytes > 0 {
			lost := drawChunkLosses(e.netSeed, l.Name, task, opIdx, attempt, nAcc, p)
			if lost > 0 {
				rb := float64(lost) * float64(bytes) / float64(nAcc)
				extraBytes += rb
				extraLat += float64(lost) * lat
				h.ls.retrans += uint64(rb)
				h.ls.lost += uint64(lost)
			}
		}
	}
	return extraBytes, extraLat
}

// drawChunkLosses counts chunk retransmissions for one transfer: every
// chunk is drawn, lost chunks are re-drawn per round until all arrive. The
// round cap bounds the loop; with loss < 1 the expected round count is tiny.
func drawChunkLosses(seed uint64, link, task string, opIdx, attempt int, chunks int64, p float64) int64 {
	var lost int64
	remaining := chunks
	for round := 0; remaining > 0 && round < 64; round++ {
		var cnt int64
		for i := int64(0); i < remaining; i++ {
			if faults.LinkChunkLost(seed, link, task, opIdx, attempt, round, int(i), p) {
				cnt++
			}
		}
		lost += cnt
		remaining = cnt
	}
	return lost
}

// linkChange is a link fault-window boundary: when a fail-fast cut opens
// exactly now, the in-flight task flows crossing the link fail (typed,
// retryable); then every tier with flows on the link is repriced — degrade
// factors changed, or a cut opened (stall) or healed (resume). Buffered
// async writes and checkpoint copies always stall rather than fail: their
// issuing op already completed, so there is nothing to retry.
func (e *Engine) linkChange(ls *linkState) {
	aff := e.affectedTiers(nil, []hop{{ls: ls, fwd: true}, {ls: ls, fwd: false}})
	if e.faultsOn {
		if cut, ff := e.Faults.PartitionState(ls.link.A, ls.link.B, e.now); cut && ff {
			e.failCrossing(ls)
		}
	}
	for _, st := range aff {
		e.resettle(st)
	}
}

// failCrossing fails every in-flight synchronous task flow crossing a link
// whose fail-fast cut just opened, in flow-id order. The owners re-enter
// their scripts at the failing op through the standard retry path; after
// the partition heals the retried op re-routes and succeeds — the
// "partition is transient" half of crash triage (a crashed node's data is
// gone; a partitioned site's data is merely unreachable).
func (e *Engine) failCrossing(ls *linkState) {
	var victims []*flow
	for d := 0; d < 2; d++ {
		for _, fl := range ls.dir[d].flows {
			if fl.owner != nil && !fl.async && fl.ckpt == nil && fl.owner.state == tRunning {
				victims = append(victims, fl)
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, fl := range victims {
		ts := fl.owner
		op := &ts.task.Script[ts.pc]
		fl.version++ // naive mode: orphan the pending completion event
		e.removeFlow(fl)
		e.freeFlow(fl)
		e.opFail(ts, ts.pc, op, FailPartition,
			&PartitionError{A: ls.link.A, B: ls.link.B, Link: ls.link.Name})
	}
}

// flushLinkStats folds the per-link accumulators into the Result.
func (e *Engine) flushLinkStats() {
	e.result.LinkBytes = make(map[string]uint64, len(e.links))
	e.result.LinkRetransmits = make(map[string]uint64)
	// Keys are distinct per link, so map iteration order cannot affect the
	// result.
	for name, ls := range e.links {
		if total := ls.bytes + ls.retrans; total > 0 {
			e.result.LinkBytes[name] = total
		}
		if ls.lost > 0 {
			e.result.LinkRetransmits[name] = ls.lost
		}
	}
}
