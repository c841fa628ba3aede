package main

import (
	"fmt"

	"datalife/internal/iotrace"
)

// splitmix64 is the benchmark's only source of randomness. Every output is
// the Weyl-sequence state pushed through the full splitmix64 finalizer, so
// all 64 bits are mixed and nearby seeds give unrelated streams. (Hashing a
// formatted key with FNV and taking the high bits, as stats.Rand01 over
// stats.HashString does, leaves those bits barely mixed: it gives 9,624 of
// workflows.StressRandom(10000, 1)'s tasks exactly one dependency.)
type splitmix64 struct{ state uint64 }

func newRNG(seed uint64) *splitmix64 { return &splitmix64{state: seed} }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-50 for the
// small n used here.
func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// streamSeed derives the seed of one independent stream (a client, say) from
// the workload seed.
func streamSeed(seed, stream uint64) uint64 {
	return newRNG(seed ^ (stream+1)*0xd1b54a32d192ed03).next()
}

// Shape of the generated layered DAG workflows.
const (
	dagWidth    = 100 // tasks per layer
	dagShared   = 16  // shared inputs any task may read
	dagWindow   = 2   // a read's producer lies in one of the previous dagWindow layers
	dagSharedP  = 8   // one read in dagSharedP (after layer 0) goes to a shared input
	dagSharedSz = 64 << 20
	dagChunk    = 1 << 20 // largest access of the closed-form sequential reads and writes
	// A read covers one of dagSlices equal slices of its input, so a read
	// flow tracks dagSlices-fold fewer histogram blocks than a whole-file
	// scan and sessions stay small enough for long streams.
	dagSlices = 8
	// dagBandwidth (bytes per virtual second) is a power of two, so every
	// access time and the sums of them stay exact.
	dagBandwidth = 1 << 30
)

// dag is a seeded layered workflow: every task reads a slice of one to
// three distinct files (uniformly many) from the shared inputs or the
// outputs of recent layers, computes, and writes one output.
type dag struct {
	tasks     []dagTask
	taskNames []string
	// fileNames and fileSizes hold the shared inputs first, then task i's
	// output at index dagShared+i.
	fileNames []string
	fileSizes []int64
}

type dagTask struct {
	reads          []dagRead
	start, compute float64
}

type dagRead struct {
	file  int32
	slice uint8
}

// genDAG generates an n-task DAG from seed.
func genDAG(n int, seed uint64) *dag {
	r := newRNG(seed)
	d := &dag{
		tasks:     make([]dagTask, n),
		taskNames: make([]string, n),
		fileNames: make([]string, dagShared+n),
		fileSizes: make([]int64, dagShared+n),
	}
	for s := 0; s < dagShared; s++ {
		d.fileNames[s] = fmt.Sprintf("in/shared-%02d.dat", s)
		d.fileSizes[s] = dagSharedSz
	}
	for i := range d.tasks {
		layer := i / dagWidth
		k := 1 + r.intn(3)
		reads := make([]dagRead, 0, k)
		for len(reads) < k {
			var f int32
			if layer == 0 || r.intn(dagSharedP) == 0 {
				f = int32(r.intn(dagShared))
			} else {
				lo := max(0, layer-dagWindow) * dagWidth
				f = int32(dagShared + lo + r.intn(layer*dagWidth-lo))
			}
			if !readsFile(reads, f) {
				reads = append(reads, dagRead{file: f, slice: uint8(r.intn(dagSlices))})
			}
		}
		d.tasks[i] = dagTask{
			reads:   reads,
			start:   float64(layer)*100 + float64(r.intn(64))/8,
			compute: 1 + float64(r.intn(32))/8,
		}
		d.taskNames[i] = fmt.Sprintf("task-%06d", i)
		d.fileNames[dagShared+i] = fmt.Sprintf("out/%06d.dat", i)
		d.fileSizes[dagShared+i] = dagChunk << r.intn(4)
	}
	return d
}

func readsFile(reads []dagRead, f int32) bool {
	for _, rd := range reads {
		if rd.file == f {
			return true
		}
	}
	return false
}

// numEvents is the length of the DAG's event stream.
func (d *dag) numEvents() int {
	n := 0
	for _, t := range d.tasks {
		n += 5 + 3*len(t.reads)
	}
	return n
}

// appendTask appends task i's trace events: start, a sequential read of a
// slice of every input, compute, a sequential write of its output, end. A
// read names the input's size, as a shim's open would; the output does not
// exist yet when it is opened, so its size is unknown.
func (d *dag) appendTask(dst []iotrace.TraceEvent, i int) []iotrace.TraceEvent {
	t := d.tasks[i]
	name := d.taskNames[i]
	now := t.start
	dst = append(dst, iotrace.TraceEvent{Kind: iotrace.EvTaskStart, Task: name, T: now})
	access := func(kind iotrace.EventKind, file string, sizeHint, off, n int64) {
		chunk := min(dagChunk, n)
		dt := float64(chunk) / dagBandwidth
		dst = append(dst,
			iotrace.TraceEvent{Kind: iotrace.EvOpen, Task: name, File: file, FileSize: sizeHint, T: now},
			iotrace.TraceEvent{Kind: kind, Task: name, File: file, FileSize: sizeHint,
				Off: off, Len: n, Chunk: chunk, Rep: 1, T: now, Dt: dt})
		now += float64(n/chunk) * dt
		dst = append(dst, iotrace.TraceEvent{Kind: iotrace.EvClose, Task: name, File: file, T: now})
	}
	for _, rd := range t.reads {
		size := d.fileSizes[rd.file]
		n := size / dagSlices
		access(iotrace.EvReadChunks, d.fileNames[rd.file], size, n*int64(rd.slice), n)
	}
	now += t.compute
	out := dagShared + i
	access(iotrace.EvWriteChunks, d.fileNames[out], 0, 0, d.fileSizes[out])
	return append(dst, iotrace.TraceEvent{Kind: iotrace.EvTaskEnd, Task: name, T: now})
}

// batches cuts the DAG's event stream into consecutive batches of n events
// (the last may be shorter).
func (d *dag) batches(n int) [][]iotrace.TraceEvent {
	all := make([]iotrace.TraceEvent, 0, d.numEvents())
	for i := range d.tasks {
		all = d.appendTask(all, i)
	}
	out := make([][]iotrace.TraceEvent, 0, (len(all)+n-1)/n)
	for len(all) > 0 {
		k := min(n, len(all))
		out = append(out, all[:k:k])
		all = all[k:]
	}
	return out
}
