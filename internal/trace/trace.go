// Package trace implements BigFlowSim-style trace emulation (§6.4 of the
// DataLife paper): "we capture real traces, adjust the traces by how each
// optimization would affect data accesses, and replay them".
//
// A Recorder attached to the simulator captures the executed operation
// stream (offsets resolved, durations measured). Transforms adjust the trace
// the way the paper's three optimizations would — Defragment regularizes
// access patterns, Filter reduces transferred data, Regroup reassigns tasks
// into co-scheduled ensembles — and Replay turns the adjusted trace back
// into a runnable workload whose compute time is held constant, keeping the
// emulation conservative.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"datalife/internal/sim"
)

// Event is one captured operation.
type Event struct {
	Task string     `json:"task"`
	Kind sim.OpKind `json:"kind"`
	Path string     `json:"path,omitempty"`
	Off  int64      `json:"off,omitempty"`
	Len  int64      `json:"len,omitempty"`
	// Start and Dur are virtual seconds in the captured run.
	Start float64 `json:"start"`
	Dur   float64 `json:"dur"`
}

// Trace is a captured operation stream in completion order.
type Trace struct {
	Events []Event
}

// Recorder implements sim.TraceSink.
type Recorder struct {
	mu sync.Mutex
	tr Trace
}

// NewRecorder creates an empty recorder; attach via sim.Engine.Trace.
func NewRecorder() *Recorder { return &Recorder{} }

// Event implements sim.TraceSink.
func (r *Recorder) Event(task string, kind sim.OpKind, path string, off, n int64, start, dur float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr.Events = append(r.tr.Events, Event{
		Task: task, Kind: kind, Path: path, Off: off, Len: n, Start: start, Dur: dur,
	})
}

// Trace returns a copy of the captured trace.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Trace{Events: make([]Event, len(r.tr.Events))}
	copy(out.Events, r.tr.Events)
	return out
}

// Tasks returns the distinct task names in first-appearance order.
func (t *Trace) Tasks() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range t.Events {
		if !seen[e.Task] {
			seen[e.Task] = true
			out = append(out, e.Task)
		}
	}
	return out
}

// ReadBytes sums read lengths across the trace.
func (t *Trace) ReadBytes() int64 {
	var n int64
	for _, e := range t.Events {
		if e.Kind == sim.OpRead {
			n += e.Len
		}
	}
	return n
}

// Save writes the trace as JSON.
func (t *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.Events)
}

// Load reads a trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	var evs []Event
	if err := json.NewDecoder(r).Decode(&evs); err != nil {
		return nil, fmt.Errorf("trace: decoding: %w", err)
	}
	return &Trace{Events: evs}, nil
}

// --- Transforms ------------------------------------------------------------

// Defragment regularizes access patterns: within each task's stream of reads
// of one file (between its open and close), reads are re-ordered by offset —
// the paper's first emulated optimization ("'defragmenting' to increase
// spatial locality"). Other events keep their positions.
func Defragment(t *Trace) *Trace {
	out := &Trace{Events: make([]Event, len(t.Events))}
	copy(out.Events, t.Events)

	// Collect index runs of consecutive reads per (task, path) and sort each
	// run's offsets.
	type key struct{ task, path string }
	runs := make(map[key][]int)
	flush := func(k key) {
		idxs := runs[k]
		if len(idxs) > 1 {
			reads := make([]Event, len(idxs))
			for i, ix := range idxs {
				reads[i] = out.Events[ix]
			}
			sort.SliceStable(reads, func(a, b int) bool { return reads[a].Off < reads[b].Off })
			for i, ix := range idxs {
				// Keep the slot's timing; move the access geometry.
				ev := out.Events[ix]
				ev.Off, ev.Len = reads[i].Off, reads[i].Len
				out.Events[ix] = ev
			}
		}
		delete(runs, k)
	}
	for i, e := range out.Events {
		k := key{e.Task, e.Path}
		switch e.Kind {
		case sim.OpRead:
			runs[k] = append(runs[k], i)
		case sim.OpClose, sim.OpWrite:
			flush(k)
		}
	}
	for k := range runs {
		flush(k)
	}
	return out
}

// Filter reduces transferred data by the given factor (near-storage
// filtering): every read keeps 1/factor of its bytes at the same offset.
func Filter(t *Trace, factor int) *Trace {
	if factor < 1 {
		factor = 1
	}
	out := &Trace{Events: make([]Event, len(t.Events))}
	copy(out.Events, t.Events)
	for i := range out.Events {
		if out.Events[i].Kind == sim.OpRead {
			out.Events[i].Len /= int64(factor)
		}
	}
	return out
}

// Regroup forms ensembles: tasks are partitioned into groups of `size`, and
// every task in a group replays the *leader's* input accesses — the paper's
// "task ensembles that group N tasks per dataset". Non-read events stay
// per-task (compute is held constant).
func Regroup(t *Trace, size int) *Trace {
	if size < 2 {
		cp := &Trace{Events: make([]Event, len(t.Events))}
		copy(cp.Events, t.Events)
		return cp
	}
	tasks := t.Tasks()
	leader := make(map[string]string, len(tasks))
	for i, task := range tasks {
		leader[task] = tasks[(i/size)*size]
	}
	// Collect each leader's read/open/close sequence per task.
	ioSeq := make(map[string][]Event)
	for _, e := range t.Events {
		switch e.Kind {
		case sim.OpRead, sim.OpOpen, sim.OpClose:
			ioSeq[e.Task] = append(ioSeq[e.Task], e)
		}
	}
	out := &Trace{}
	cursor := make(map[string]int)
	for _, e := range t.Events {
		switch e.Kind {
		case sim.OpRead, sim.OpOpen, sim.OpClose:
			l := leader[e.Task]
			seq := ioSeq[l]
			i := cursor[e.Task]
			if i < len(seq) {
				ev := seq[i]
				ev.Task = e.Task // the member replays the leader's access
				ev.Start, ev.Dur = e.Start, e.Dur
				out.Events = append(out.Events, ev)
				cursor[e.Task] = i + 1
				continue
			}
			out.Events = append(out.Events, e)
		default:
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// --- Replay ----------------------------------------------------------------

// ReplayOptions configure trace replay.
type ReplayOptions struct {
	// Chunk is the access granularity for replayed reads/writes (default 1 MiB).
	Chunk int64
	// Group pins groups of `Group` tasks (in trace order) to one node,
	// mirroring ensemble co-scheduling; 0 disables.
	Group int
	// Nodes are the target node names for Group pinning.
	Nodes []string
	// CreateTier routes replayed writes (default "local:ssd").
	CreateTier string
}

// Replay converts a trace back into a runnable workload. The tasks carry no
// dependencies (the captured campaigns are independent-task ensembles; the
// transforms preserve that), and compute events replay with their captured
// durations — the conservative, compute-held-constant emulation of §6.4.
func Replay(t *Trace, opts ReplayOptions) *sim.Workload {
	if opts.Chunk <= 0 {
		opts.Chunk = 1 << 20
	}
	if opts.CreateTier == "" {
		opts.CreateTier = "local:ssd"
	}
	byTask := make(map[string][]Event)
	order := t.Tasks()
	for _, e := range t.Events {
		byTask[e.Task] = append(byTask[e.Task], e)
	}
	w := &sim.Workload{Name: "trace-replay"}
	for ti, task := range order {
		evs := byTask[task]
		st := &sim.Task{Name: task, Stage: "replay", CreateTier: opts.CreateTier}
		if opts.Group > 1 && len(opts.Nodes) > 0 {
			st.Node = opts.Nodes[(ti/opts.Group)%len(opts.Nodes)]
		}
		for _, e := range evs {
			switch e.Kind {
			case sim.OpOpen:
				st.Script = append(st.Script, sim.Open(e.Path))
			case sim.OpClose:
				st.Script = append(st.Script, sim.Close(e.Path))
			case sim.OpRead:
				if e.Len > 0 {
					st.Script = append(st.Script, sim.ReadAt(e.Path, e.Off, e.Len, opts.Chunk))
				}
			case sim.OpWrite:
				if e.Len > 0 {
					st.Script = append(st.Script, sim.Write(e.Path, e.Len, opts.Chunk))
				}
			case sim.OpCompute:
				st.Script = append(st.Script, sim.Compute(e.Dur))
			}
		}
		w.Tasks = append(w.Tasks, st)
	}
	return w
}
