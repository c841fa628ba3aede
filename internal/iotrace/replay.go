package iotrace

import (
	"fmt"

	"datalife/internal/blockstats"
)

// EventKind enumerates the trace event types a collector can replay. The set
// mirrors what the measurement shim observes — task lifecycle, open/close,
// and single or closed-form sequential accesses — so any trace source (the
// serve wire protocol, future ingest parsers) reduces to the same stream.
type EventKind uint8

const (
	// EvTaskStart marks the start of a task at time T.
	EvTaskStart EventKind = iota
	// EvTaskEnd marks the end of a task at time T.
	EvTaskEnd
	// EvOpen marks a task opening a file at time T.
	EvOpen
	// EvClose marks a task closing a file at time T.
	EvClose
	// EvRead is a single read of Len bytes at Off, at time T taking Dt.
	EvRead
	// EvWrite is a single write of Len bytes at Off, at time T taking Dt.
	EvWrite
	// EvReadChunks is a closed-form sequential read batch: Len bytes from
	// Off in Chunk-sized pieces, repeated Rep times, starting at T with Dt
	// per chunk (see blockstats.RecordStridedChunks with stride == chunk).
	EvReadChunks
	// EvWriteChunks is the write analogue of EvReadChunks.
	EvWriteChunks

	numEventKinds // sentinel for validation
)

var eventKindNames = [...]string{
	EvTaskStart:   "task-start",
	EvTaskEnd:     "task-end",
	EvOpen:        "open",
	EvClose:       "close",
	EvRead:        "read",
	EvWrite:       "write",
	EvReadChunks:  "read-chunks",
	EvWriteChunks: "write-chunks",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// TraceEvent is one replayable trace record. Which fields are meaningful
// depends on Kind; unused fields are zero.
type TraceEvent struct {
	Kind EventKind
	// Task names the acting task (all kinds).
	Task string
	// File names the accessed file (all kinds except task start/end).
	File string
	// FileSize is the file size hint used when the flow is first created.
	FileSize int64
	// Off and Len locate single accesses and chunk batches.
	Off, Len int64
	// Chunk and Rep shape EvReadChunks/EvWriteChunks batches.
	Chunk int64
	Rep   int
	// T is the event time; Dt the per-access (or per-chunk) duration.
	T, Dt float64
}

// maxChargeAccesses bounds the accesses, ⌈Len/Chunk⌉·Rep, one chunk-batch
// event may charge. Charging is linear in them (latency totals are repeated
// additions), so one unbounded batch from the wire would stall its session,
// and stall it again on every journal replay. Real producers send at most a
// few hundred.
const maxChargeAccesses = 1 << 16

// checkGeometry rejects a file event whose geometry no histogram can
// represent: a negative or out-of-range size hint, offset, length or chunk,
// an access ending past blockstats.MaxExtent, or a chunk batch of more than
// maxChargeAccesses accesses.
func checkGeometry(ev TraceEvent) error {
	if ev.FileSize < 0 || ev.FileSize > blockstats.MaxExtent {
		return fmt.Errorf("iotrace: %s event with file size %d outside [0, %d]", ev.Kind, ev.FileSize, int64(blockstats.MaxExtent))
	}
	if ev.Kind == EvOpen || ev.Kind == EvClose {
		return nil // no access geometry
	}
	if ev.Off < 0 || ev.Len < 0 || ev.Chunk < 0 {
		return fmt.Errorf("iotrace: %s event with negative geometry (off=%d len=%d chunk=%d)", ev.Kind, ev.Off, ev.Len, ev.Chunk)
	}
	if ev.Off > blockstats.MaxExtent-ev.Len {
		return fmt.Errorf("iotrace: %s event at off=%d len=%d ends past %d", ev.Kind, ev.Off, ev.Len, int64(blockstats.MaxExtent))
	}
	if ev.Kind == EvRead || ev.Kind == EvWrite || ev.Len == 0 {
		return nil
	}
	chunk := ev.Chunk
	if chunk == 0 || chunk > ev.Len {
		chunk = ev.Len
	}
	if m := (ev.Len + chunk - 1) / chunk; m > maxChargeAccesses/int64(max(ev.Rep, 1)) {
		return fmt.Errorf("iotrace: %s event charges %d chunks %d times, over the %d-access limit", ev.Kind, m, max(ev.Rep, 1), maxChargeAccesses)
	}
	return nil
}

// ApplyEvent replays one trace event into the collector, updating task
// lifecycle or flow histograms exactly as the live measurement shim would.
// An event whose geometry no histogram can represent is rejected before it
// creates or touches a flow (see checkGeometry). The flow-level calls follow
// the owner-mutates discipline: callers replaying into a shared collector
// must serialize events of the same (task, file) flow.
func (c *Collector) ApplyEvent(ev TraceEvent) error {
	if ev.Kind >= numEventKinds {
		return fmt.Errorf("iotrace: unknown trace event kind %d", uint8(ev.Kind))
	}
	if ev.Task == "" {
		return fmt.Errorf("iotrace: %s event without a task", ev.Kind)
	}
	switch ev.Kind {
	case EvTaskStart:
		c.TaskStarted(ev.Task, ev.T)
		return nil
	case EvTaskEnd:
		c.TaskEnded(ev.Task, ev.T)
		return nil
	}
	if ev.File == "" {
		return fmt.Errorf("iotrace: %s event without a file", ev.Kind)
	}
	if err := checkGeometry(ev); err != nil {
		return err
	}
	fl := c.Flow(ev.Task, ev.File, ev.FileSize)
	switch ev.Kind {
	case EvOpen:
		fl.RecordOpen(ev.T)
	case EvClose:
		fl.RecordClose(ev.T)
	case EvRead:
		fl.RecordAccess(blockstats.Read, ev.Off, ev.Len, ev.T, ev.Dt)
	case EvWrite:
		fl.RecordAccess(blockstats.Write, ev.Off, ev.Len, ev.T, ev.Dt)
	case EvReadChunks:
		fl.RecordStridedChunks(blockstats.Read, ev.Off, ev.Len, ev.Chunk, ev.Chunk, ev.Rep, ev.T, ev.Dt)
	case EvWriteChunks:
		fl.RecordStridedChunks(blockstats.Write, ev.Off, ev.Len, ev.Chunk, ev.Chunk, ev.Rep, ev.T, ev.Dt)
	}
	return nil
}
