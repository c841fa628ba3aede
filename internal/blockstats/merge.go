package blockstats

import "fmt"

// Merge folds another histogram for the same task-file pair into fs. This is
// the distributed half of §3's measurement design: each node's collector
// tracks its local accesses, and per task-file histograms merge into the
// global view when the workflow ends. Histograms must use the same sampling
// rule so their tracked locations agree (the determinism requirement).
//
// The consecutive-distance statistics concatenate as-is: the seam between
// the two access sequences contributes no distance sample, which
// under-counts by at most one observation.
func (fs *FlowStat) Merge(other *FlowStat) error {
	if fs.Task != other.Task || fs.File != other.File {
		return fmt.Errorf("blockstats: merging mismatched flows %s/%s and %s/%s",
			fs.Task, fs.File, other.Task, other.File)
	}
	if fs.cfg.SampleP != other.cfg.SampleP || fs.cfg.SampleT != other.cfg.SampleT {
		return fmt.Errorf("blockstats: merging flows with different sampling rules")
	}

	// Aggregates add directly.
	fs.ReadOps += other.ReadOps
	fs.WriteOps += other.WriteOps
	fs.ReadBytes += other.ReadBytes
	fs.WriteBytes += other.WriteBytes
	fs.ReadTime += other.ReadTime
	fs.WriteTime += other.WriteTime
	fs.DistSum += other.DistSum
	fs.DistN += other.DistN
	fs.ZeroDist += other.ZeroDist
	fs.SmallDist += other.SmallDist
	if other.Opens > 0 && (fs.Opens == 0 || other.OpenTime < fs.OpenTime) {
		fs.OpenTime = other.OpenTime
	}
	fs.Opens += other.Opens
	if other.CloseTime > fs.CloseTime {
		fs.CloseTime = other.CloseTime
	}
	fs.Closes += other.Closes
	if other.fileSize > fs.fileSize {
		fs.fileSize = other.fileSize
	}

	// Align block sizes: rescale the finer histogram up to the coarser one,
	// then fold other's blocks in.
	fs.rescaleIfNeeded()
	for fs.blockSize < other.blockSize {
		fs.forceRescale()
	}
	ratio := other.blockSize // bytes per source block
	for i := range other.blocks {
		src := &other.blocks[i]
		// A new block starts from src's own window: LastAccess is never
		// negative, so widening the fresh slot's zero to it is exact.
		if dst := fs.slot(src.idx*ratio/fs.blockSize, src.FirstAccess); dst != nil {
			dst.add(&src.BlockStat)
		}
	}
	fs.rescaleIfNeeded()
	return nil
}

// forceRescale doubles the block size unconditionally (used when aligning
// histograms during merges).
func (fs *FlowStat) forceRescale() {
	target := fs.capBytes * 2
	saved := fs.fileSize
	if target > saved {
		fs.fileSize = target
	}
	fs.rescaleIfNeeded()
	fs.fileSize = saved
}
