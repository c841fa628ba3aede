package sim

import (
	"fmt"

	"datalife/internal/vfs"
)

// CheckpointPolicy asks the engine to protect chosen intermediate files:
// the moment a task that wrote one finishes, the engine copies the file to
// the named durable (shared) tier through the normal flow machinery, and
// the crash-recovery triage restores lost files from those copies in
// preference to re-staging or re-running the producer. The file list
// normally comes from the DFL-guided planner (internal/checkpoint).
//
// A nil policy (or an empty file list) leaves every engine code path — and
// therefore every output byte — identical to a build without checkpointing.
type CheckpointPolicy struct {
	// Tier is the durable tier checkpoint copies are written to. It must
	// be a shared tier: node-local tiers die with their node.
	Tier string
	// Files lists the paths to protect.
	Files []string
}

// ckptState tracks one protected file's checkpoint lifecycle.
type ckptState struct {
	path    string
	size    int64  // bytes the (in-flight or durable) copy holds
	srcNode string // node whose crash aborts an in-flight copy
	fl      *flow  // current copy leg, nil when idle
	leg     int    // 0: read at source tier, 1: write at durable tier
	durable bool   // a complete, current copy exists on the durable tier
}

// initCheckpoint validates the policy and builds the protected-file index.
// With a nil policy it leaves the engine byte-identical to a run without
// checkpointing: no extra events, no extra state.
func (e *Engine) initCheckpoint() error {
	e.ckptOn = false
	e.ckptTier, e.ckptFiles, e.ckpt = nil, nil, nil
	p := e.Checkpoint
	if p == nil || len(p.Files) == 0 {
		return nil
	}
	tier, err := e.FS.Tier(p.Tier)
	if err != nil {
		return fmt.Errorf("sim: checkpoint tier: %w", err)
	}
	if !tier.Shared {
		return fmt.Errorf("sim: checkpoint tier %s is node-local; checkpoints need a shared durable tier", tier.Name)
	}
	e.ckptOn = true
	e.ckptTier = tier
	e.ckptFiles = make(map[string]bool, len(p.Files))
	for _, path := range p.Files {
		e.ckptFiles[path] = true
	}
	e.ckpt = make(map[string]*ckptState, len(p.Files))
	return nil
}

// noteCkptWrite tracks a completed write to a protected path: it queues the
// path as a checkpoint trigger for the writing task and invalidates any
// existing copy — the durable bytes no longer match, and an in-flight copy
// would persist a torn version.
func (e *Engine) noteCkptWrite(ts *taskState, path string) {
	if !e.ckptFiles[path] {
		return
	}
	if st := e.ckpt[path]; st != nil {
		if st.fl != nil {
			e.abortCkptCopy(st, true)
		}
		st.durable = false
	}
	for _, p := range ts.wrote {
		if p == path {
			return
		}
	}
	ts.wrote = append(ts.wrote, path)
}

// abortCkptCopy cancels an in-flight checkpoint copy. With unlink set the
// flow is also removed from its tier and the tier re-shared; crashNode's
// bulk filter unlinks flows itself and passes false.
func (e *Engine) abortCkptCopy(st *ckptState, unlink bool) {
	fl := st.fl
	fl.version++ // naive mode: orphan the pending completion event
	if unlink {
		e.removeFlow(fl)
		e.resettleNet(fl.st, fl)
		e.freeFlow(fl)
	}
	st.fl = nil
	st.leg = 0
}

// checkpointOutputs starts checkpoint copies for the protected files the
// finished task wrote, in the order it first wrote them.
func (e *Engine) checkpointOutputs(ts *taskState) {
	for _, path := range ts.wrote {
		e.maybeCheckpoint(path)
	}
	ts.wrote = nil
}

// maybeCheckpoint starts a copy of a protected file to the durable tier
// unless one is already durable or in flight, or the file already lives on
// a shared tier (where a node crash cannot lose it).
func (e *Engine) maybeCheckpoint(path string) {
	st := e.ckpt[path]
	if st != nil && (st.durable || st.fl != nil) {
		return
	}
	f, err := e.FS.Stat(path)
	if err != nil || f.Size == 0 || f.Tier.Shared {
		return
	}
	if st == nil {
		st = &ckptState{path: path}
		e.ckpt[path] = st
	}
	st.size = f.Size
	st.srcNode = f.Tier.Node
	st.leg = 0
	st.durable = false
	e.startCkptFlow(st, f.Tier, false)
}

// startCkptFlow launches one leg of the two-leg copy (read at the source
// tier, then write at the durable tier) through the normal flow machinery,
// so checkpoint traffic contends for bandwidth like any other stream. The
// copy is fully asynchronous: it has no owning task and never blocks one.
func (e *Engine) startCkptFlow(st *ckptState, tier *vfs.Tier, write bool) {
	rem := float64(st.size)
	var extra float64
	var hops []hop
	if e.netOn {
		// Checkpoint copies route through the source node like stage legs. A
		// routing failure (disconnected location) skips the links rather than
		// failing the copy: checkpointing never aborts the run. An active
		// partition cut stalls the copy; it drains after the heal.
		if h, err := e.flowRoute(st.srcNode, tier, write); err == nil {
			hops = h
			extraBytes, extraLat := e.linkEffects(hops, "checkpoint:"+st.path, st.leg, 1, st.size, 1)
			rem += extraBytes
			extra += extraLat
		}
	}
	e.flowSeq++
	fl := e.newFlow()
	fl.write = write
	fl.rem = rem
	fl.lastT = e.now
	fl.extra = extra
	fl.started = e.now
	fl.id = e.flowSeq
	fl.ckpt = st
	st.fl = fl
	ts := e.tierFor(tier)
	e.addFlow(ts, fl)
	if len(hops) > 0 {
		e.addFlowLinks(fl, hops)
	}
	ts.bytes += uint64(st.size)
	e.resettleNet(ts, fl)
}

// finishCkptFlow advances a completed copy leg: the source read chains into
// the durable write; the write's completion makes the checkpoint durable.
func (e *Engine) finishCkptFlow(fl *flow) {
	st := fl.ckpt
	if st.fl != fl {
		return // aborted copy; stale completion
	}
	st.fl = nil
	if st.leg == 0 {
		st.leg = 1
		e.startCkptFlow(st, e.ckptTier, true)
		return
	}
	st.leg = 0
	st.durable = true
	e.result.CheckpointCopies++
	e.result.CheckpointBytes += uint64(st.size)
}

// restoreFromCheckpoint re-materializes a crash-lost file from its durable
// copy, if one exists. This is the triage path that beats a producer
// re-run: the bytes already live on the shared checkpoint tier, so recovery
// is a metadata re-create there rather than a re-execution.
func (e *Engine) restoreFromCheckpoint(path string) bool {
	st := e.ckpt[path]
	if st == nil || !st.durable {
		return false
	}
	if _, err := e.FS.CreateSized(path, e.ckptTier.Name, st.size); err != nil {
		return false // checkpoint tier full; fall back to normal triage
	}
	e.result.CheckpointRestores++
	return true
}
