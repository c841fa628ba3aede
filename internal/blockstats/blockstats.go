// Package blockstats implements the constant-space flow histograms of §3 of
// the DataLife paper ("Data Flow Lifecycles for Optimizing Workflow
// Coordination", SC '23).
//
// For each task-file pair the collector keeps one FlowStat: a handful of
// aggregate counters plus a per-block histogram whose size is bounded by a
// constant, independent of both the number of I/O operations (unlike tracing)
// and the file size (unlike naive histograms). Two mechanisms establish the
// bound, exactly as in the paper:
//
//  1. Adjustable access resolution: the maximum number of tracked locations
//     per file is Config.BlocksPerFile. The block size is a ratio of the file
//     size for reads; for writes, where the final size is unknown, an initial
//     size comes from historical information or user guidance
//     (Config.WriteBlockSize) and the histogram re-scales (doubling the block
//     size and folding bins) whenever a growing file would exceed the bound.
//  2. Spatial sampling: a deterministic hash rule H(L) mod P < T selects a
//     fixed fraction r = T/P of block locations. The rule depends only on the
//     location, never on access order or volume, so every producer and
//     consumer of a lifecycle samples the same locations — the paper's
//     correctness requirement for sampling connected flows.
package blockstats

import (
	"fmt"
	"math"
	"sort"

	"datalife/internal/stats"
)

// OpKind distinguishes the two flow directions of §3: reads are data→task
// (consumer) flow, writes are task→data (producer) flow.
type OpKind uint8

const (
	// Read is consumer flow (data to task).
	Read OpKind = iota
	// Write is producer flow (task to data).
	Write
)

func (k OpKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Config controls histogram resolution and spatial sampling.
type Config struct {
	// BlocksPerFile caps the number of tracked block locations per file
	// (the paper's "access resolution"). Must be >= 1.
	BlocksPerFile int
	// SampleP and SampleT define the sampling rule H(L) mod P < T.
	// SampleT >= SampleP (or SampleP == 0) disables sampling.
	SampleP, SampleT uint64
	// WriteBlockSize is the initial block size (bytes) for files first seen
	// via writes, standing in for the paper's "historical information or
	// user guidance". Must be >= 1.
	WriteBlockSize int64
}

// DefaultConfig mirrors the paper's guidance: a modest constant number of
// locations and no sampling (sampling is opt-in for very large file sets).
func DefaultConfig() Config {
	return Config{BlocksPerFile: 64, SampleP: 0, SampleT: 0, WriteBlockSize: 1 << 20}
}

// Validate checks the histogram configuration invariants: at least one
// block per file, a positive write block size, and a sampling threshold no
// larger than its modulus. It is the exported entry point used by the
// dflcheck pre-run validator; the collector's own entry points run the same
// check internally.
func (c Config) Validate() error { return c.validate() }

func (c Config) validate() error {
	if c.BlocksPerFile < 1 {
		return fmt.Errorf("blockstats: BlocksPerFile must be >= 1, got %d", c.BlocksPerFile)
	}
	if c.WriteBlockSize < 1 {
		return fmt.Errorf("blockstats: WriteBlockSize must be >= 1, got %d", c.WriteBlockSize)
	}
	if c.SampleP != 0 && c.SampleT > c.SampleP {
		return fmt.Errorf("blockstats: SampleT (%d) must be <= SampleP (%d)", c.SampleT, c.SampleP)
	}
	return nil
}

// samplingRate returns r = T/P, or 1 when sampling is disabled.
func (c Config) samplingRate() float64 {
	if c.SampleP == 0 || c.SampleT >= c.SampleP {
		return 1
	}
	return float64(c.SampleT) / float64(c.SampleP)
}

// sampled reports whether location (file, block) is tracked under the rule
// H(L) mod P < T.
func (c Config) sampled(file string, block int64) bool {
	if c.SampleP == 0 || c.SampleT >= c.SampleP {
		return true
	}
	return stats.HashLocation(file, block)%c.SampleP < c.SampleT
}

// MaxExtent is the largest file extent (offset plus length) a histogram
// supports. Below it the block arithmetic, including the block-size
// doublings of a rescale, stays clear of int64 overflow; callers that take
// offsets from outside the program reject larger ones.
const MaxExtent = 1 << 60

// BlockStat holds the bounded per-location statistics (the paper bounds the
// count at roughly ten).
type BlockStat struct {
	Reads, Writes         uint64
	ReadBytes, WriteBytes uint64
	FirstAccess           float64 // virtual seconds
	LastAccess            float64
}

// add folds src into bs: counts sum, the access window widens.
func (bs *BlockStat) add(src *BlockStat) {
	bs.Reads += src.Reads
	bs.Writes += src.Writes
	bs.ReadBytes += src.ReadBytes
	bs.WriteBytes += src.WriteBytes
	if src.FirstAccess < bs.FirstAccess {
		bs.FirstAccess = src.FirstAccess
	}
	if src.LastAccess > bs.LastAccess {
		bs.LastAccess = src.LastAccess
	}
}

// block is one tracked location: its block index and its statistics.
type block struct {
	idx int64
	BlockStat
}

// FlowStat is the histogram for one task-file pair: one or two flow relations
// (producer and/or consumer) plus aggregate statistics.
type FlowStat struct {
	Task string
	File string

	cfg       Config
	blockSize int64
	fileSize  int64 // highest byte seen (offset+len), proxy for file size

	// Hot-path precomputation: capBytes is the rescale threshold
	// (blockSize * BlocksPerFile) maintained alongside blockSize, and
	// sampleAll is true when the sampling rule keeps every location —
	// both are derived from cfg once instead of per recorded block.
	capBytes  int64
	sampleAll bool

	// blocks holds the tracked locations sorted by block index, so a flow's
	// histogram is one allocation however many blocks it tracks. cur is the
	// position of the last-touched entry: scans touch blocks in order, so the
	// next lookup usually ends at cur or cur+1 without a search. Any value
	// of cur is a valid hint, so nothing needs to reset it.
	blocks []block
	cur    int

	// Aggregate counters (exact, not sampled).
	ReadOps, WriteOps     uint64
	ReadBytes, WriteBytes uint64
	ReadTime, WriteTime   float64 // total blocking latency, virtual seconds
	OpenTime, CloseTime   float64 // first open / last close, virtual seconds
	Opens, Closes         uint64

	// Consecutive access distance statistics (spatial locality, §4.2).
	haveLast  bool
	lastLoc   int64
	DistSum   float64 // sum of |loc_i - loc_{i-1}| in bytes
	DistN     uint64
	ZeroDist  uint64 // consecutive accesses at identical location (temporal locality)
	SmallDist uint64 // consecutive accesses within one block (spatial locality)
}

// NewFlowStat creates the histogram for one task-file pair. fileSize may be 0
// when unknown (e.g. a file about to be produced by writes).
func NewFlowStat(task, file string, fileSize int64, cfg Config) (*FlowStat, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return FlowStatFor(task, file, fileSize, cfg), nil
}

// FlowStatFor is the infallible core of NewFlowStat for configurations
// already checked with Config.Validate — callers that validate once at
// construction (e.g. a collector) create flows on the record path without a
// second error check.
func FlowStatFor(task, file string, fileSize int64, cfg Config) *FlowStat {
	fs := &FlowStat{
		Task:     task,
		File:     file,
		cfg:      cfg,
		fileSize: fileSize,
	}
	fs.blockSize = cfg.initialBlockSize(fileSize)
	fs.capBytes = fs.blockSize * int64(cfg.BlocksPerFile)
	fs.sampleAll = cfg.SampleP == 0 || cfg.SampleT >= cfg.SampleP
	return fs
}

// sampledBlock reports whether block b of this file is tracked, using the
// precomputed no-sampling fast path.
func (fs *FlowStat) sampledBlock(b int64) bool {
	return fs.sampleAll || stats.HashLocation(fs.File, b)%fs.cfg.SampleP < fs.cfg.SampleT
}

// initialBlockSize picks the block size: a ratio of file size for files whose
// size is known (reads), the historical/user-guided size otherwise (writes).
func (c Config) initialBlockSize(fileSize int64) int64 {
	if fileSize > 0 {
		bs := (fileSize + int64(c.BlocksPerFile) - 1) / int64(c.BlocksPerFile)
		if bs < 1 {
			bs = 1
		}
		return bs
	}
	return c.WriteBlockSize
}

// BlockSize returns the current block size in bytes.
func (fs *FlowStat) BlockSize() int64 { return fs.blockSize }

// FileSize returns the largest file extent observed.
func (fs *FlowStat) FileSize() int64 { return fs.fileSize }

// TrackedBlocks returns the number of locations currently in the histogram.
func (fs *FlowStat) TrackedBlocks() int { return len(fs.blocks) }

// RecordOpen notes an open at virtual time t.
func (fs *FlowStat) RecordOpen(t float64) {
	if fs.Opens == 0 || t < fs.OpenTime {
		fs.OpenTime = t
	}
	fs.Opens++
}

// RecordClose notes a close at virtual time t.
func (fs *FlowStat) RecordClose(t float64) {
	if t > fs.CloseTime {
		fs.CloseTime = t
	}
	fs.Closes++
}

// RecordAccess records one read or write of n bytes at byte offset off,
// starting at virtual time t and blocking for dt seconds. off must be
// non-negative and off+n at most MaxExtent.
func (fs *FlowStat) RecordAccess(kind OpKind, off, n int64, t, dt float64) {
	if n <= 0 {
		return
	}
	end := off + n
	if end > fs.fileSize {
		fs.fileSize = end
	}
	switch kind {
	case Read:
		fs.ReadOps++
		fs.ReadBytes += uint64(n)
		fs.ReadTime += dt
	case Write:
		fs.WriteOps++
		fs.WriteBytes += uint64(n)
		fs.WriteTime += dt
	}

	fs.seek(off)
	fs.lastLoc = off + n // next sequential access has distance 0

	if fs.fileSize > fs.capBytes {
		fs.rescaleIfNeeded()
	}

	// Per-block histogram, subject to spatial sampling. The common access is
	// a single block (chunked I/O at or below the block size), so that case
	// skips the loop.
	first := off / fs.blockSize
	last := (end - 1) / fs.blockSize
	if first == last {
		if bs := fs.atCursor(first); bs != nil {
			bs.bump(kind, 1, uint64(n), t, t)
		} else {
			fs.bumpBlock(first, kind, 1, uint64(n), t, t)
		}
		return
	}
	for b := first; b <= last; b++ {
		lo := b * fs.blockSize
		hi := lo + fs.blockSize
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		fs.bumpBlock(b, kind, 1, uint64(hi-lo), t, t)
	}
}

// seek records the consecutive-access ("seek") distance from the end of the
// previous access to an access starting at loc, measured at the current
// block size.
func (fs *FlowStat) seek(loc int64) {
	if fs.haveLast {
		d := loc - fs.lastLoc
		if d < 0 {
			d = -d
		}
		fs.DistSum += float64(d)
		fs.DistN++
		if d == 0 {
			fs.ZeroDist++
		}
		if d < fs.blockSize {
			fs.SmallDist++
		}
	}
	fs.haveLast = true
}

// bumpBlock folds cnt accesses totalling bytes into block b, with first/last
// access times tFirst/tLast. A block the sampling rule skips is not tracked.
func (fs *FlowStat) bumpBlock(b int64, kind OpKind, cnt, bytes uint64, tFirst, tLast float64) {
	if bs := fs.slot(b, tFirst); bs != nil {
		bs.bump(kind, cnt, bytes, tFirst, tLast)
	}
}

// atCursor returns the statistics of block b if it is the block last
// touched, else nil. It is small enough to inline, so RecordAccess takes its
// common case, another access to the same block, without a call.
func (fs *FlowStat) atCursor(b int64) *BlockStat {
	if c := uint(fs.cur); c < uint(len(fs.blocks)) && fs.blocks[c].idx == b {
		return &fs.blocks[c].BlockStat
	}
	return nil
}

// bump folds cnt accesses totalling bytes, first at tFirst and last at
// tLast, into bs.
func (bs *BlockStat) bump(kind OpKind, cnt, bytes uint64, tFirst, tLast float64) {
	switch kind {
	case Read:
		bs.Reads += cnt
		bs.ReadBytes += bytes
	case Write:
		bs.Writes += cnt
		bs.WriteBytes += bytes
	}
	if tFirst < bs.FirstAccess {
		bs.FirstAccess = tFirst
	}
	if tLast > bs.LastAccess {
		bs.LastAccess = tLast
	}
}

// slot returns the statistics of block b, first accessed at t if the block
// is new, and moves the cursor to it. It returns nil for a location the
// sampling rule skips. The pointer is valid until the next insertion or
// rescale.
func (fs *FlowStat) slot(b int64, t float64) *BlockStat {
	i, ok := fs.find(b)
	if !ok {
		if !fs.sampledBlock(b) {
			return nil
		}
		fs.blocks = append(fs.blocks, block{})
		copy(fs.blocks[i+1:], fs.blocks[i:])
		fs.blocks[i] = block{idx: b, BlockStat: BlockStat{FirstAccess: t}}
	}
	fs.cur = i
	return &fs.blocks[i].BlockStat
}

// find returns the position of block b in fs.blocks and whether it is
// tracked; an untracked block's position is where it would be inserted. The
// cursor narrows the search, and a block at or just after it needs no
// search at all.
func (fs *FlowStat) find(b int64) (int, bool) {
	blocks := fs.blocks
	lo, hi := 0, len(blocks)
	if c := fs.cur; c < hi {
		switch idx := blocks[c].idx; {
		case idx == b:
			return c, true
		case idx < b:
			lo = c + 1
		default:
			hi = c
		}
	}
	if lo < hi && blocks[lo].idx >= b {
		hi = lo
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if blocks[m].idx < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(blocks) && blocks[lo].idx == b
}

// rescaleIfNeeded doubles the block size and folds histogram bins whenever the
// observed file extent would need more than BlocksPerFile locations. This is
// the paper's "adjustable access resolution" for growing (written) files.
// Halving the block indices keeps them sorted, so the bins that share a new
// block are adjacent and fold in place.
func (fs *FlowStat) rescaleIfNeeded() {
	for fs.fileSize > fs.capBytes {
		fs.blockSize *= 2
		fs.capBytes *= 2
		folded := fs.blocks[:0]
		for _, e := range fs.blocks {
			e.idx /= 2
			if n := len(folded); n > 0 && folded[n-1].idx == e.idx {
				folded[n-1].add(&e.BlockStat)
				continue
			}
			// A folded location survives only if the sampling rule keeps it
			// at the new resolution, preserving determinism across rescales.
			if fs.sampledBlock(e.idx) {
				folded = append(folded, e)
			}
		}
		fs.blocks = folded
	}
}

// Volume returns total (non-unique) bytes moved in the given direction.
func (fs *FlowStat) Volume(kind OpKind) uint64 {
	if kind == Read {
		return fs.ReadBytes
	}
	return fs.WriteBytes
}

// TotalVolume returns read+write bytes.
func (fs *FlowStat) TotalVolume() uint64 { return fs.ReadBytes + fs.WriteBytes }

// Footprint estimates the unique bytes touched in the given direction from
// the sampled per-block histogram, scaled by 1/r and capped at the file size.
func (fs *FlowStat) Footprint(kind OpKind) uint64 {
	var blocks int64
	for i := range fs.blocks {
		if bs := &fs.blocks[i]; (kind == Read && bs.Reads > 0) || (kind == Write && bs.Writes > 0) {
			blocks++
		}
	}
	r := fs.cfg.samplingRate()
	est := int64(math.Round(float64(blocks) / r * float64(fs.blockSize)))
	if fs.fileSize > 0 && est > fs.fileSize {
		est = fs.fileSize
	}
	return uint64(est)
}

// TotalFootprint estimates unique bytes touched by either direction.
func (fs *FlowStat) TotalFootprint() uint64 {
	var blocks int64
	for i := range fs.blocks {
		if bs := &fs.blocks[i]; bs.Reads > 0 || bs.Writes > 0 {
			blocks++
		}
	}
	r := fs.cfg.samplingRate()
	est := int64(math.Round(float64(blocks) / r * float64(fs.blockSize)))
	if fs.fileSize > 0 && est > fs.fileSize {
		est = fs.fileSize
	}
	return uint64(est)
}

// ReuseFactor is volume/footprint in the given direction; 1.0 means every
// byte touched once, >1 indicates reuse (§4.2 "reuse and subsets").
func (fs *FlowStat) ReuseFactor(kind OpKind) float64 {
	fp := fs.Footprint(kind)
	if fp == 0 {
		return 0
	}
	return float64(fs.Volume(kind)) / float64(fp)
}

// MeanDistance is the mean consecutive access ("seek") distance in bytes.
func (fs *FlowStat) MeanDistance() float64 {
	if fs.DistN == 0 {
		return 0
	}
	return fs.DistSum / float64(fs.DistN)
}

// ZeroDistanceFraction is the fraction of consecutive accesses with distance
// zero — pure sequential/temporal locality.
func (fs *FlowStat) ZeroDistanceFraction() float64 {
	if fs.DistN == 0 {
		return 0
	}
	return float64(fs.ZeroDist) / float64(fs.DistN)
}

// SmallDistanceFraction is the fraction of consecutive accesses within one
// block — the paper's spatial-locality indicator (distance < block size).
func (fs *FlowStat) SmallDistanceFraction() float64 {
	if fs.DistN == 0 {
		return 0
	}
	return float64(fs.SmallDist) / float64(fs.DistN)
}

// FileLifetime is the open-to-close lifetime in virtual seconds.
func (fs *FlowStat) FileLifetime() float64 {
	if fs.Opens == 0 {
		return 0
	}
	lt := fs.CloseTime - fs.OpenTime
	if lt < 0 {
		return 0
	}
	return lt
}

// HotBlocks returns up to n block indices ordered by descending access count,
// ties broken by index — the candidates for caching (§5.2).
func (fs *FlowStat) HotBlocks(n int) []int64 {
	type bc struct {
		b int64
		c uint64
	}
	all := make([]bc, 0, len(fs.blocks))
	for i := range fs.blocks {
		e := &fs.blocks[i]
		all = append(all, bc{e.idx, e.Reads + e.Writes})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].b < all[j].b
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].b
	}
	return out
}

// Block returns a copy of the statistics for block b, or nil if untracked.
func (fs *FlowStat) Block(b int64) *BlockStat {
	i, ok := fs.find(b)
	if !ok {
		return nil
	}
	bs := fs.blocks[i].BlockStat
	return &bs
}

// Blocks returns tracked block indices in ascending order.
func (fs *FlowStat) Blocks() []int64 {
	out := make([]int64, len(fs.blocks))
	for i := range fs.blocks {
		out[i] = fs.blocks[i].idx
	}
	return out
}

func (fs *FlowStat) String() string {
	return fmt.Sprintf("flow{%s<->%s rd=%dB/%dops wr=%dB/%dops fp=%dB blocks=%d}",
		fs.Task, fs.File, fs.ReadBytes, fs.ReadOps, fs.WriteBytes, fs.WriteOps,
		fs.TotalFootprint(), len(fs.blocks))
}
