package advisor

import (
	"fmt"
	"sort"

	"datalife/internal/sim"
	"datalife/internal/workflows"
)

// Apply rewrites a workload in place to follow the plan, closing the loop
// from measurement to remediation:
//
//   - every task is pinned to its thread's node (nodeNames indexes the
//     cluster's nodes);
//   - tasks whose outputs are all NodeLocal write to localTier (a "local:*"
//     tier reference);
//   - for StagedCopy inputs, one staging task per consuming node copies the
//     file to localTier, consumer reads are rewritten to the copy, and
//     consumers gain a dependency on their node's staging task.
//
// The plan must come from a DFL graph measured on the same workload (task
// names must match).
func Apply(spec *workflows.Spec, plan *Plan, nodeNames []string, localTier string) error {
	if len(nodeNames) == 0 {
		return fmt.Errorf("advisor: no nodes to apply the plan onto")
	}
	class := make(map[string]TierClass, len(plan.Placements))
	for _, fp := range plan.Placements {
		class[fp.File.Name] = fp.Class
	}
	nodeOf := make(map[string]int)
	for _, th := range plan.Threads {
		for _, t := range th.Tasks {
			nodeOf[t.Name] = th.Node
		}
	}
	taskNode := func(name string) (string, bool) {
		n, ok := nodeOf[name]
		if !ok {
			return "", false
		}
		return nodeNames[n%len(nodeNames)], true
	}

	// Pin tasks; route outputs of fully-local tasks to local storage.
	for _, t := range spec.Workload.Tasks {
		node, ok := taskNode(t.Name)
		if !ok {
			continue // task not in the measured graph (e.g. pure compute, no I/O)
		}
		t.Node = node
		allLocal := true
		hasWrite := false
		for _, op := range t.Script {
			if op.Kind == sim.OpWrite {
				hasWrite = true
				if class[op.Path] == SharedFS {
					allLocal = false
				}
			}
		}
		if hasWrite && allLocal {
			t.CreateTier = localTier
		}
	}

	// Build staging tasks for StagedCopy inputs.
	inputSize := make(map[string]int64, len(spec.Inputs))
	for _, in := range spec.Inputs {
		inputSize[in.Path] = in.Size
	}
	needed := make(map[string]map[string]int64) // node -> path -> size
	for _, t := range spec.Workload.Tasks {
		if t.Node == "" {
			continue
		}
		for _, op := range t.Script {
			if op.Kind != sim.OpRead || class[op.Path] != StagedCopy {
				continue
			}
			sz, isInput := inputSize[op.Path]
			if !isInput {
				continue // only pre-existing inputs can be pre-staged
			}
			if needed[t.Node] == nil {
				needed[t.Node] = make(map[string]int64)
			}
			needed[t.Node][op.Path] = sz
		}
	}
	staged := func(node, path string) string { return "advised/" + node + "/" + path }
	var nodes []string
	for n := range needed {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	stageTask := make(map[string]string, len(nodes))
	for _, node := range nodes {
		task := &sim.Task{
			Name:       "advise-stage#" + node,
			Node:       node,
			Stage:      "advise-stage",
			CreateTier: localTier,
		}
		var paths []string
		for p := range needed[node] {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			sz := needed[node][p]
			task.Script = append(task.Script,
				sim.Open(p), sim.Read(p, sz, 8<<20), sim.Close(p),
				sim.Open(staged(node, p)), sim.Write(staged(node, p), sz, 8<<20),
				sim.Close(staged(node, p)))
		}
		stageTask[node] = task.Name
		spec.Workload.Tasks = append(spec.Workload.Tasks, task)
	}

	// Rewrite consumer reads and add staging dependencies.
	for _, t := range spec.Workload.Tasks {
		if t.Node == "" || stageTask[t.Node] == t.Name {
			continue
		}
		usesStaged := false
		for i := range t.Script {
			op := &t.Script[i]
			if class[op.Path] != StagedCopy {
				continue
			}
			if _, isInput := inputSize[op.Path]; !isInput {
				continue
			}
			switch op.Kind {
			case sim.OpRead, sim.OpOpen, sim.OpClose:
				op.Path = staged(t.Node, op.Path)
				usesStaged = true
			}
		}
		if usesStaged {
			if dep, ok := stageTask[t.Node]; ok {
				t.Deps = append(t.Deps, dep)
			}
		}
	}
	return spec.Workload.Validate()
}
