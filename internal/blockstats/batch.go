package blockstats

import "math"

// Batch charging: the simulator previously fed chunked I/O into the histogram
// one RecordAccess per chunk, paying the full record path O(bytes/chunk)
// times per operation. RecordStridedChunks charges an entire chunked scan —
// sequential, or strided with gaps between the chunks — in closed form,
// O(touched blocks + rescales) instead of O(chunks) histogram updates, while
// producing state bit-identical to the per-chunk loop:
//
//	i := int64(0)
//	for r := 0; r < rep; r++ {
//		for j := int64(0); j*chunk < n; j++ {
//			sz := min(chunk, n-j*chunk)
//			fs.RecordAccess(kind, off+j*stride, sz, t0+float64(i)*per, per)
//			i++
//		}
//	}
//
// Bit-identity holds because every constituent of the per-chunk path is
// reconstructed exactly:
//
//   - Chunk j covers [off+j·stride, off+j·stride+sz), so per-block byte
//     totals are the block's overlap with that span minus the gaps between
//     its chunks, and per-block access counts are chunk-index ranges, both
//     computed arithmetically.
//   - Chunk timestamps are t0 + float64(i)*per — the same expression the
//     loop evaluates — and are monotone in i, so a block's first/last
//     access times come from the first/last chunk index touching it.
//   - Float sums the loop builds by repeated addition (latency totals, and
//     the gap distances between strided chunks) accumulate by the same
//     repeated addition (see addRepeated); float addition is not
//     distributive, so float64(k)*x would drift in the last ulp.
//   - Growing files re-scale at exactly the chunk that would have triggered
//     the re-scale in the loop: the scan is processed in "epochs" of
//     constant block size, folding the histogram between epochs. Whether a
//     gap counts as a small distance depends on the block size, so it is
//     counted per epoch too.

// RecordStridedChunks records rep repeats of a strided scan: n bytes read or
// written in chunk-sized accesses, chunk j at off + j·stride (the last chunk
// holds the remainder), issued at t0, t0+per, t0+2·per, ... with per seconds
// of blocking latency each. chunk <= 0 (or > n) means one access covers the
// whole range; rep < 1 is treated as 1; stride == chunk is a sequential scan
// of [off, off+n). It is bit-identical with the corresponding loop of
// RecordAccess calls, and with stride >= chunk it costs O(touched blocks) per
// scan instead of O(chunks). Overlapping chunks (stride < chunk) are charged
// one access at a time. Every chunk must lie in [0, MaxExtent], as for
// RecordAccess.
func (fs *FlowStat) RecordStridedChunks(kind OpKind, off, n, chunk, stride int64, rep int, t0, per float64) {
	if n <= 0 {
		return
	}
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	if rep < 1 {
		rep = 1
	}
	m := (n + chunk - 1) / chunk // chunks per scan
	ops := m * int64(rep)
	if m == 1 {
		stride = chunk // a lone chunk has no stride
	}
	if stride < chunk {
		for i := int64(0); i < ops; i++ {
			j := i % m
			fs.RecordAccess(kind, off+j*stride, min(chunk, n-j*chunk), t0+float64(i)*per, per)
		}
		return
	}
	switch kind {
	case Read:
		fs.ReadOps += uint64(ops)
		fs.ReadBytes += uint64(n) * uint64(rep)
		fs.ReadTime = addRepeated(fs.ReadTime, per, ops)
	case Write:
		fs.WriteOps += uint64(ops)
		fs.WriteBytes += uint64(n) * uint64(rep)
		fs.WriteTime = addRepeated(fs.WriteTime, per, ops)
	}

	end := off + (m-1)*stride + n - (m-1)*chunk // end of a scan's last chunk
	gap := stride - chunk                       // from one chunk's end to the next's start
	if cap(fs.blocks) == 0 {
		// A fresh histogram reserves room for the blocks the scan is
		// expected to track, in one allocation: the scan touches at most the
		// blocks it spans, rescaling keeps at most BlocksPerFile of them, and
		// sampling keeps a fraction r.
		spanned := min((end-1)/fs.blockSize-off/fs.blockSize+1, int64(fs.cfg.BlocksPerFile))
		fs.blocks = make([]block, 0, int(math.Ceil(float64(spanned)*fs.cfg.samplingRate())))
	}
	for r := int64(0); r < int64(rep); r++ {
		// The scan's first chunk seeks from wherever the flow was (a repeat
		// seeks back from the previous scan's end), measured at the block
		// size in effect before that chunk re-scales anything.
		fs.seek(off)
		// Each of the other m-1 chunks lies gap bytes past the previous
		// one's end; recordScanBlocks counts the small ones per epoch.
		fs.DistSum = addRepeated(fs.DistSum, float64(gap), m-1)
		fs.DistN += uint64(m - 1)
		if gap == 0 {
			fs.ZeroDist += uint64(m - 1)
		}
		fs.recordScanBlocks(kind, off, end, chunk, stride, m, r*m, t0, per)
		fs.lastLoc = end
	}
}

// recordScanBlocks folds one scan's chunk accesses into the per-block
// histogram. The scan is processed in epochs of constant block size:
// whenever a chunk would grow the file past the resolution cap, the
// histogram re-scales exactly as the per-chunk path would, and the walk
// resumes at the doubled block size. Within an epoch each touched block is
// updated once, with its chunk count, byte overlap, and first/last chunk
// timestamps computed arithmetically. end is the end of the scan's last
// chunk, and iBase the global chunk index of the scan's first chunk (r*m
// for repeat r).
func (fs *FlowStat) recordScanBlocks(kind OpKind, off, end, chunk, stride, m, iBase int64, t0, per float64) {
	gap := stride - chunk
	for j := int64(0); j < m; {
		// The per-chunk path measures chunk j's gap before chunk j grows
		// the file, so at the block size of the previous epoch.
		if j > 0 && gap < fs.blockSize {
			fs.SmallDist++
		}
		// Grow the observed extent to this chunk's end and re-scale where
		// the per-chunk path would have.
		if cEnd := min(off+j*stride+chunk, end); cEnd > fs.fileSize {
			fs.fileSize = cEnd
		}
		if fs.fileSize > fs.capBytes {
			fs.rescaleIfNeeded()
		}
		// The epoch runs through the last chunk that fits the current
		// resolution cap (all of them when the scan's end does).
		jHi := m - 1
		if end > fs.capBytes {
			jHi = (fs.capBytes - off - chunk) / stride
		}
		bsz := fs.blockSize
		if gap < bsz {
			fs.SmallDist += uint64(jHi - j)
		}
		segHi := min(off+jHi*stride+chunk, end)
		// Walk the touched blocks in order. Chunks k0..k1 are the epoch's
		// chunks overlapping block b: k0 is the first ending after the
		// block's start, k1 the last starting before its end.
		k0 := j
		for b, bLast := (off+j*stride)/bsz, (segHi-1)/bsz; b <= bLast; {
			lo, hi := b*bsz, (b+1)*bsz
			k1 := min(jHi, (hi-off-1)/stride)
			if k0 > k1 {
				// The block lies in a gap; skip to the next chunk's block.
				b = (off + k0*stride) / bsz
				continue
			}
			e1 := min(off+k1*stride+chunk, end)
			bytes := min(e1, hi) - max(off+k0*stride, lo) - (k1-k0)*gap
			fs.bumpBlock(b, kind, uint64(k1-k0+1), uint64(bytes),
				t0+float64(iBase+k0)*per, t0+float64(iBase+k1)*per)
			// The next block starts with chunk k1 if it straddles hi.
			k0 = k1 + 1
			if e1 > hi {
				k0 = k1
			}
			b++
		}
		if segHi > fs.fileSize {
			fs.fileSize = segHi
		}
		j = jHi + 1
	}
}

// addRepeated returns sum after adding x to it k times, one addition at a
// time. The loop is deliberate: the per-access path accumulates latency by
// repeated addition, and batch charging must stay bit-identical to it —
// float64(k)*x rounds differently. The loop exits early once sum absorbs x
// (adding it again cannot change the value).
func addRepeated(sum, x float64, k int64) float64 {
	for i := int64(0); i < k; i++ {
		next := sum + x
		if next == sum {
			return sum
		}
		sum = next
	}
	return sum
}
