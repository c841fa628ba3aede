package workflows

import (
	"fmt"

	"datalife/internal/sim"
	"datalife/internal/stats"
)

// Stress-scale synthetic generators. Unlike the paper-faithful workflows in
// this package, these exist purely to exercise the simulator's event core at
// 10^5–10^6 task scale: long dependency chains (deep DAGs, one live flow at a
// time), wide fan-ins (huge ready queues, many concurrent flows on one tier),
// and seeded random layered DAGs (mixed geometry). All sizes and compute
// times default to exactly representable (dyadic) values so that results are
// insensitive to floating-point summation order.

// ChainParams configures Chain.
type ChainParams struct {
	Tasks     int     // chain length
	FileBytes int64   // bytes each task writes / the next task reads
	ComputeS  float64 // per-task compute seconds
}

// DefaultChainParams returns dyadic-valued defaults for n tasks.
func DefaultChainParams(n int) ChainParams {
	return ChainParams{Tasks: n, FileBytes: 4 * mb, ComputeS: 0.25}
}

// Chain generates a linear pipeline: task i reads task i-1's output and
// writes its own. Task 0 reads a seeded input. Exactly one flow is live at a
// time, so the workload stresses event-core constants (heap ops, flow
// add/remove, repricing) rather than fair-share contention.
func Chain(p ChainParams) *Spec {
	w := &sim.Workload{Name: fmt.Sprintf("stress-chain-%d", p.Tasks)}
	prev := "chain/in.dat"
	for i := 0; i < p.Tasks; i++ {
		out := fmt.Sprintf("chain/t%d.dat", i)
		t := &sim.Task{
			Name: fmt.Sprintf("c%06d", i),
			Script: []sim.Op{
				sim.Open(prev),
				sim.Read(prev, p.FileBytes, 0),
				sim.Close(prev),
				sim.Compute(p.ComputeS),
				sim.Open(out),
				sim.Write(out, p.FileBytes, 0),
				sim.Close(out),
			},
		}
		if i > 0 {
			t.Deps = []string{fmt.Sprintf("c%06d", i-1)}
		}
		w.Tasks = append(w.Tasks, t)
		prev = out
	}
	return &Spec{
		Name:     w.Name,
		Workload: w,
		Inputs:   []InputFile{{Path: "chain/in.dat", Size: p.FileBytes}},
	}
}

// FanInParams configures FanIn.
type FanInParams struct {
	Producers int     // number of independent producer tasks
	FileBytes int64   // bytes each producer writes
	ComputeS  float64 // per-producer compute seconds
}

// DefaultFanInParams returns dyadic-valued defaults for n producers.
func DefaultFanInParams(n int) FanInParams {
	return FanInParams{Producers: n, FileBytes: 1 * mb, ComputeS: 0.5}
}

// FanIn generates n independent producers whose outputs a single consumer
// reads. The producer phase stresses the ready queue (every producer is
// ready at t=0) and per-tier fair-share with many concurrent flows; the
// consumer stresses a single task with a long script.
func FanIn(p FanInParams) *Spec {
	w := &sim.Workload{Name: fmt.Sprintf("stress-fanin-%d", p.Producers)}
	consumer := &sim.Task{Name: "reduce"}
	for i := 0; i < p.Producers; i++ {
		out := fmt.Sprintf("fanin/p%06d.dat", i)
		id := fmt.Sprintf("p%06d", i)
		w.Tasks = append(w.Tasks, &sim.Task{
			Name: id,
			Script: []sim.Op{
				sim.Compute(p.ComputeS),
				sim.Open(out),
				sim.Write(out, p.FileBytes, 0),
				sim.Close(out),
			},
		})
		consumer.Deps = append(consumer.Deps, id)
		consumer.Script = append(consumer.Script,
			sim.Open(out),
			sim.Read(out, p.FileBytes, 0),
			sim.Close(out),
		)
	}
	consumer.Script = append(consumer.Script, sim.Compute(p.ComputeS))
	w.Tasks = append(w.Tasks, consumer)
	return &Spec{Name: w.Name, Workload: w}
}

// ShardedChainsParams configures ShardedChains.
type ShardedChainsParams struct {
	Shards    int     // independent chains, one per node
	Length    int     // tasks per chain
	FileBytes int64   // bytes per link
	ComputeS  float64 // per-task compute seconds
	TierKind  string  // node-local tier kind (e.g. "ssd")
}

// DefaultShardedChainsParams returns dyadic-valued defaults.
func DefaultShardedChainsParams(shards, length int) ShardedChainsParams {
	return ShardedChainsParams{
		Shards: shards, Length: length,
		FileBytes: 4 * mb, ComputeS: 0.25, TierKind: "ssd",
	}
}

// ShardedChains generates s independent chains, chain k pinned to node
// "node<k>" with all I/O on that node's local TierKind tier. No file, tier,
// or node is shared across shards. Every input is seeded on its shard's
// local tier via InputFile.Tier.
func ShardedChains(p ShardedChainsParams) *Spec {
	w := &sim.Workload{Name: fmt.Sprintf("stress-shards-%dx%d", p.Shards, p.Length)}
	spec := &Spec{Name: w.Name, Workload: w}
	for s := 0; s < p.Shards; s++ {
		node := fmt.Sprintf("node%d", s)
		local := "local:" + p.TierKind
		in := fmt.Sprintf("shard%03d/in.dat", s)
		spec.Inputs = append(spec.Inputs, InputFile{
			Path: in, Size: p.FileBytes,
			Tier: sim.LocalTierName(p.TierKind, node),
		})
		prev := in
		for i := 0; i < p.Length; i++ {
			out := fmt.Sprintf("shard%03d/t%d.dat", s, i)
			t := &sim.Task{
				Name:       fmt.Sprintf("s%03d.t%06d", s, i),
				Node:       node,
				CreateTier: local,
				Script: []sim.Op{
					sim.Open(prev),
					sim.Read(prev, p.FileBytes, 0),
					sim.Close(prev),
					sim.Compute(p.ComputeS),
					sim.Open(out),
					sim.Write(out, p.FileBytes, 0),
					sim.Close(out),
				},
			}
			if i > 0 {
				t.Deps = []string{fmt.Sprintf("s%03d.t%06d", s, i-1)}
			}
			w.Tasks = append(w.Tasks, t)
			prev = out
		}
	}
	return spec
}

// StressRandomParams configures StressRandom.
type StressRandomParams struct {
	Tasks    int   // total task count
	Layers   int   // DAG depth
	MaxDeps  int   // max dependencies per task (drawn 1..MaxDeps)
	Seed     int64 // deterministic generator seed
	MaxBytes int64 // per-file size drawn as a dyadic value in [MaxBytes/8, MaxBytes]
}

// DefaultStressRandomParams returns defaults for n tasks.
func DefaultStressRandomParams(n int, seed int64) StressRandomParams {
	return StressRandomParams{Tasks: n, Layers: 32, MaxDeps: 3, Seed: seed, MaxBytes: 8 * mb}
}

// StressRandom generates a seeded layered random DAG at stress scale. Each
// task reads the outputs of its (randomly drawn, earlier-layer) dependencies
// and writes one output. Sizes are restricted to powers of two and compute
// times to multiples of 1/16 s so all derived sums are exact in float64.
func StressRandom(p StressRandomParams) *Spec {
	if p.Layers < 1 {
		p.Layers = 1
	}
	if p.MaxDeps < 1 {
		p.MaxDeps = 1
	}
	w := &sim.Workload{Name: fmt.Sprintf("stress-rand-%d-s%d", p.Tasks, p.Seed)}
	spec := &Spec{Name: w.Name, Workload: w}
	perLayer := (p.Tasks + p.Layers - 1) / p.Layers
	if perLayer < 1 {
		perLayer = 1
	}
	// layerStart[l] = index of first task in layer l; outputs[i]/sizes[i] =
	// task i's output file and its size.
	var layerStart []int
	outputs := make([]string, 0, p.Tasks)
	sizes := make([]int64, 0, p.Tasks)
	draw := func(tag string, i int) float64 {
		return stats.Rand01(stats.HashString(fmt.Sprintf("stress:%d:%s:%d", p.Seed, tag, i)))
	}
	for i := 0; i < p.Tasks; i++ {
		layer := i / perLayer
		for len(layerStart) <= layer {
			layerStart = append(layerStart, i)
		}
		out := fmt.Sprintf("rand/t%07d.dat", i)
		// Dyadic size: MaxBytes >> k for k in 0..3.
		size := p.MaxBytes >> (int64(draw("size", i) * 4))
		if size < 1 {
			size = 1
		}
		t := &sim.Task{Name: fmt.Sprintf("r%07d", i)}
		if layer == 0 {
			in := fmt.Sprintf("rand/in%04d.dat", i%64)
			if i < 64 {
				spec.Inputs = append(spec.Inputs, InputFile{Path: in, Size: p.MaxBytes})
			}
			t.Script = append(t.Script, sim.Open(in), sim.Read(in, size, 0), sim.Close(in))
		} else {
			ndeps := 1 + int(draw("ndeps", i)*float64(p.MaxDeps))
			if ndeps > p.MaxDeps {
				ndeps = p.MaxDeps
			}
			seen := map[int]bool{}
			for d := 0; d < ndeps; d++ {
				// Draw a dependency from any earlier layer, biased to the previous.
				hi := layerStart[layer]
				lo := 0
				if draw("near", i*8+d) < 0.75 {
					lo = layerStart[layer-1]
				}
				dep := lo + int(draw("dep", i*8+d)*float64(hi-lo))
				if dep >= hi {
					dep = hi - 1
				}
				if seen[dep] {
					continue
				}
				seen[dep] = true
				t.Deps = append(t.Deps, fmt.Sprintf("r%07d", dep))
				t.Script = append(t.Script,
					sim.Open(outputs[dep]),
					sim.Read(outputs[dep], sizes[dep], 0),
					sim.Close(outputs[dep]),
				)
			}
		}
		// Compute in multiples of 1/16 s, in [1/16, 1].
		t.Script = append(t.Script, sim.Compute(float64(1+int(draw("cpu", i)*15))/16))
		t.Script = append(t.Script, sim.Open(out), sim.Write(out, size, 0), sim.Close(out))
		w.Tasks = append(w.Tasks, t)
		outputs = append(outputs, out)
		sizes = append(sizes, size)
	}
	return spec
}
