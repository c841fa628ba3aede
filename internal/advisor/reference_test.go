package advisor

import (
	"fmt"
	"sort"

	"datalife/internal/cpa"
	"datalife/internal/dfl"
	"datalife/internal/faults"
	"datalife/internal/patterns"
)

// The reference advisor: thread extraction, placement and the locality score
// as they read the graph by vertex ID, rebuilding every ranked near-critical
// path from sink to source and expanding every shared data vertex again on
// each path. The slot-native production code must produce the same Plan and
// the same score, bit for bit.

func referenceAdvise(g *dfl.Graph, cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	if !g.IsDAG() {
		return nil, fmt.Errorf("advisor: needs a DFL-DAG (acyclic); aggregate templates are not schedulable")
	}
	threads := referenceExtractThreads(g)
	BalanceThreads(threads, cfg.Nodes)

	plan := &Plan{Threads: threads}
	threadOf := make(map[dfl.ID]int)
	for _, th := range threads {
		for _, t := range th.Tasks {
			threadOf[t] = th.ID
		}
	}
	plan.Placements = referencePlaceFiles(g, cfg, threads, threadOf)
	if path, err := cpa.CriticalPath(g, cpa.ByVolume, nil); err == nil {
		plan.Opportunities = patterns.Analyze(g, cpa.DFLCaterpillar(g, path), patterns.Config{})
	}
	return plan, nil
}

func referenceExtractThreads(g *dfl.Graph) []Thread {
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

	// Walk the ranked near-critical paths, stopping once every task is
	// claimed. (On a cyclic graph there are no paths and every task becomes a
	// singleton.)
	paths, _ := cpa.NearCriticalPaths(g, weight, vweight, g.NumVertices())
	for _, p := range paths {
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
			for _, e := range g.In(id) {
				claim(e.Src)
			}
			for _, e := range g.Out(id) {
				claim(e.Dst)
			}
		}
		addThread(tasks)
		if len(claimed) >= numTasks {
			break
		}
	}
	for _, v := range g.Tasks() {
		if !claimed[v.ID] {
			claimed[v.ID] = true
			addThread([]dfl.ID{v.ID})
		}
	}

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

func referencePlaceFiles(g *dfl.Graph, cfg Config, threads []Thread, threadOf map[dfl.ID]int) []FilePlacement {
	nodeOfThread := make(map[int]int, len(threads))
	for _, th := range threads {
		nodeOfThread[th.ID] = th.Node
	}
	files := g.DataFiles()
	if len(files) == 0 {
		return nil
	}
	out := make([]FilePlacement, len(files))
	for i, v := range files {
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
			fp.Class = StagedCopy
			fp.Why = fmt.Sprintf("read-only input with %d consumers across %d node(s): duplicated, congested flow",
				len(consumers), len(nodes))
		case home >= 0 && sameThread:
			fp.Class = NodeLocal
			fp.Thread = home
			fp.Why = fmt.Sprintf("all producer-consumer flow stays inside thread %d", home)
		case len(nodes) == 1 && home >= 0:
			fp.Class = NodeLocal
			fp.Thread = home
			fp.Why = "all accessing threads share one node"
		default:
			fp.Class = SharedFS
			fp.Why = fmt.Sprintf("crosses %d node(s); keep on shared storage", len(nodes))
		}
		if cfg.CrashesPerHour > 0 && fp.Class != SharedFS {
			fp.RerunRisk = faults.CrashProbability(cfg.CrashesPerHour, v.Data.Lifetime)
			var rerun float64
			for _, t := range producers {
				rerun += g.Vertex(t).Task.Lifetime
			}
			fp.RerunCost = fp.RerunRisk * rerun
		}
		out[i] = fp
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Volume > out[j].Volume })
	return out
}

func referenceLocalityScore(p *Plan, g *dfl.Graph) float64 {
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
