package blockstats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// naiveChunks is the per-chunk reference loop that RecordStridedChunks must
// match bit for bit.
func naiveChunks(fs *FlowStat, kind OpKind, off, n, chunk, stride int64, rep int, t0, per float64) {
	if n <= 0 {
		return
	}
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	if rep < 1 {
		rep = 1
	}
	i := int64(0)
	for r := 0; r < rep; r++ {
		for j := int64(0); j*chunk < n; j++ {
			fs.RecordAccess(kind, off+j*stride, min(chunk, n-j*chunk), t0+float64(i)*per, per)
			i++
		}
	}
}

// sameFlowState compares every observable and internal field of two
// FlowStats, including the per-block histogram and scaling state.
func sameFlowState(t *testing.T, label string, got, want *FlowStat) {
	t.Helper()
	if got.ReadOps != want.ReadOps || got.WriteOps != want.WriteOps ||
		got.ReadBytes != want.ReadBytes || got.WriteBytes != want.WriteBytes {
		t.Fatalf("%s: ops/bytes mismatch: got R(%d,%d) W(%d,%d), want R(%d,%d) W(%d,%d)",
			label, got.ReadOps, got.ReadBytes, got.WriteOps, got.WriteBytes,
			want.ReadOps, want.ReadBytes, want.WriteOps, want.WriteBytes)
	}
	if got.ReadTime != want.ReadTime || got.WriteTime != want.WriteTime {
		t.Fatalf("%s: time mismatch: got (%v,%v), want (%v,%v)",
			label, got.ReadTime, got.WriteTime, want.ReadTime, want.WriteTime)
	}
	if got.DistSum != want.DistSum || got.DistN != want.DistN ||
		got.ZeroDist != want.ZeroDist || got.SmallDist != want.SmallDist {
		t.Fatalf("%s: distance mismatch: got (%v,%d,%d,%d), want (%v,%d,%d,%d)",
			label, got.DistSum, got.DistN, got.ZeroDist, got.SmallDist,
			want.DistSum, want.DistN, want.ZeroDist, want.SmallDist)
	}
	if got.lastLoc != want.lastLoc || got.haveLast != want.haveLast {
		t.Fatalf("%s: lastLoc mismatch: got (%d,%v), want (%d,%v)",
			label, got.lastLoc, got.haveLast, want.lastLoc, want.haveLast)
	}
	if got.fileSize != want.fileSize || got.blockSize != want.blockSize || got.capBytes != want.capBytes {
		t.Fatalf("%s: scale mismatch: got size=%d bs=%d cap=%d, want size=%d bs=%d cap=%d",
			label, got.fileSize, got.blockSize, got.capBytes,
			want.fileSize, want.blockSize, want.capBytes)
	}
	gb, wb := got.Blocks(), want.Blocks()
	if !reflect.DeepEqual(gb, wb) {
		t.Fatalf("%s: tracked blocks mismatch: got %v, want %v", label, gb, wb)
	}
	for _, b := range wb {
		if g, w := got.Block(b), want.Block(b); !reflect.DeepEqual(*g, *w) {
			t.Fatalf("%s: block %d mismatch: got %+v, want %+v", label, b, *g, *w)
		}
	}
}

// inBounds fails unless every tracked block index lies in [0, BlocksPerFile):
// rescaling keeps the file extent within BlocksPerFile blocks.
func inBounds(t *testing.T, label string, fs *FlowStat) {
	t.Helper()
	for _, b := range fs.Blocks() {
		if b < 0 || b >= int64(fs.cfg.BlocksPerFile) {
			t.Fatalf("%s: block index %d outside [0, %d)", label, b, fs.cfg.BlocksPerFile)
		}
	}
}

type batchCase struct {
	off, n, chunk, stride int64
	rep                   int
	t0, per               float64
}

// seq is a sequential scan: stride == chunk.
func seq(off, n, chunk int64, rep int, t0, per float64) batchCase {
	return batchCase{off, n, chunk, chunk, rep, t0, per}
}

type chargeOp struct {
	kind OpKind
	c    batchCase
}

func runBatchEquivalence(t *testing.T, label string, size int64, cfg Config, ops []chargeOp) {
	t.Helper()
	batch := mustFlow(t, "task", "file", size, cfg)
	naive := mustFlow(t, "task", "file", size, cfg)
	for i, op := range ops {
		c := op.c
		batch.RecordStridedChunks(op.kind, c.off, c.n, c.chunk, c.stride, c.rep, c.t0, c.per)
		naiveChunks(naive, op.kind, c.off, c.n, c.chunk, c.stride, c.rep, c.t0, c.per)
		sameFlowState(t, label+" (after op "+string(rune('0'+i%10))+")", batch, naive)
	}
}

func TestBatchEquivalenceDirected(t *testing.T) {
	const mb = 1 << 20
	cfg := Config{BlocksPerFile: 8, WriteBlockSize: 64}
	cases := []struct {
		name string
		size int64
		cfg  Config
		ops  []chargeOp
	}{
		{"single-chunk read", 1024, cfg, []chargeOp{
			{Read, seq(0, 1024, 0, 1, 0, 0.5)},
		}},
		{"chunked read, repeats", 1024, cfg, []chargeOp{
			{Read, seq(0, 1024, 100, 3, 1.5, 0.125)},
		}},
		{"offset read then backward seek", 1024, cfg, []chargeOp{
			{Read, seq(512, 512, 64, 1, 0, 0.25)},
			{Read, seq(0, 256, 32, 2, 10, 0.25)},
		}},
		{"growing write triggers rescale", 0, cfg, []chargeOp{
			{Write, seq(0, 4096, 128, 1, 0, 0.0625)},
		}},
		{"multiple rescales in one scan", 0, cfg, []chargeOp{
			{Write, seq(0, 1<<20, 4096, 1, 0, 0.015625)},
		}},
		{"write then re-read at coarser blocks", 0, cfg, []chargeOp{
			{Write, seq(0, 65536, 512, 1, 0, 0.5)},
			{Read, seq(0, 65536, 1024, 2, 100, 0.5)},
		}},
		{"unaligned chunk/block boundaries", 1000, cfg, []chargeOp{
			{Read, seq(7, 993, 37, 2, 0.25, 0.3)},
			{Write, seq(13, 991, 53, 1, 50.5, 0.7)},
		}},
		{"sampled histogram", 10 << 20, Config{BlocksPerFile: 64, WriteBlockSize: 4096, SampleP: 100, SampleT: 10}, []chargeOp{
			{Read, seq(0, 10<<20, 1<<16, 1, 0, 0.5)},
			{Write, seq(1<<20, 9<<20, 1<<15, 1, 1000, 0.5)},
		}},
		{"sampled with growth", 0, Config{BlocksPerFile: 16, WriteBlockSize: 256, SampleP: 7, SampleT: 3}, []chargeOp{
			{Write, seq(0, 1<<16, 100, 1, 0, 0.5)},
			{Read, seq(0, 1<<16, 333, 3, 500, 0.5)},
		}},
		{"non-dyadic per latency", 1 << 16, cfg, []chargeOp{
			{Read, seq(0, 1<<16, 1000, 4, 3.7, 0.1)},
		}},
		{"Belle II fragmented read", 256 * mb, DefaultConfig(), []chargeOp{
			{Read, batchCase{0, 192 * mb, mb, 21 * mb / 20, 1, 12.5, 0.0123}},
		}},
		{"strided gaps wider than blocks", 1024, cfg, []chargeOp{
			{Read, batchCase{5, 30, 10, 300, 2, 0, 0.5}},
		}},
		{"strided chunks straddling blocks", 4096, cfg, []chargeOp{
			{Read, batchCase{100, 1500, 700, 1300, 1, 0, 0.25}},
		}},
		{"strided growing write, gap small only after rescales", 0, cfg, []chargeOp{
			{Write, batchCase{0, 4000, 100, 250, 1, 0, 0.0625}},
			{Read, batchCase{30, 2000, 64, 200, 3, 90, 0.3}},
		}},
		{"strided repeats, short last chunk", 2000, cfg, []chargeOp{
			{Read, batchCase{0, 1000, 64, 100, 3, 1, 0.1}},
		}},
		{"strided sampled with growth", 0, Config{BlocksPerFile: 16, WriteBlockSize: 256, SampleP: 7, SampleT: 3}, []chargeOp{
			{Write, batchCase{0, 1 << 15, 100, 333, 1, 0, 0.5}},
		}},
		{"strided after a far seek, gap sums round", 0, cfg, []chargeOp{
			{Read, seq(0, 64, 0, 1, 0, 0.5)},
			{Read, batchCase{1 << 55, 1313, 13, 16, 1, 1, 0.25}},
		}},
		{"overlapping stride charged per chunk", 4096, cfg, []chargeOp{
			{Read, batchCase{0, 1000, 100, 40, 2, 0, 0.5}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runBatchEquivalence(t, tc.name, tc.size, tc.cfg, tc.ops)
		})
	}
}

func TestBatchEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfgs := []Config{
		{BlocksPerFile: 8, WriteBlockSize: 64},
		{BlocksPerFile: 100, WriteBlockSize: 1 << 16},
		{BlocksPerFile: 32, WriteBlockSize: 512, SampleP: 10, SampleT: 3},
	}
	for trial := 0; trial < 200; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		size := int64(0)
		if rng.Intn(2) == 0 {
			size = rng.Int63n(1 << 20)
		}
		batch := mustFlow(t, "task", "file", size, cfg)
		naive := mustFlow(t, "task", "file", size, cfg)
		nOps := 1 + rng.Intn(6)
		for i := 0; i < nOps; i++ {
			kind := Read
			if rng.Intn(2) == 0 {
				kind = Write
			}
			c := batchCase{
				off:   rng.Int63n(1 << 18),
				n:     1 + rng.Int63n(1<<18),
				chunk: rng.Int63n(1 << 12), // 0 means whole-range
				rep:   1 + rng.Intn(3),
				t0:    rng.Float64() * 1e4,
				per:   rng.Float64(),
			}
			// Half the scans are sequential, half strided with a gap.
			c.stride = c.chunk
			if rng.Intn(2) == 0 {
				c.stride += rng.Int63n(1 << 13)
			}
			batch.RecordStridedChunks(kind, c.off, c.n, c.chunk, c.stride, c.rep, c.t0, c.per)
			naiveChunks(naive, kind, c.off, c.n, c.chunk, c.stride, c.rep, c.t0, c.per)
			sameFlowState(t, "randomized trial", batch, naive)
		}
		inBounds(t, "randomized trial", batch)
	}
}

// FuzzChunkCharge checks RecordStridedChunks against the per-chunk loop on
// decoded histogram configurations (sampled or not, known or growing file
// size) and scan geometries with stride >= chunk, applying the scan twice so
// the second charge lands on an existing histogram.
func FuzzChunkCharge(f *testing.F) {
	const mb = 1 << 20
	// Belle II's fragmented read: 256 MiB dataset, 192 MiB in 1 MiB chunks
	// with a 21/20 MiB stride, default 64-block histogram.
	f.Add(uint8(63), uint16(4096), uint8(16), int64(256*mb), int64(0), int64(192*mb), int64(mb), int64(21*mb/20-mb), uint8(0), false, 12.5, 0.0123)
	// A sequential (stride == chunk) growing write with sampling.
	f.Add(uint8(15), uint16(255), uint8(7), int64(-1), int64(0), int64(1<<16), int64(100), int64(0), uint8(2), true, 0.0, 0.5)
	f.Fuzz(func(t *testing.T, blocks uint8, writeBlock uint16, sampleT uint8, size, off, n, chunk, gap int64,
		rep uint8, write bool, t0, per float64) {
		cfg := Config{
			BlocksPerFile:  1 + int(blocks%128),
			WriteBlockSize: 1 + int64(writeBlock),
			SampleP:        16,
			SampleT:        uint64(sampleT % 17), // 16 disables sampling
		}
		if size < 0 {
			size = 0 // unknown: the file grows under the writes
		}
		size %= 1 << 30
		off &= 1<<28 - 1
		n = 1 + n&(1<<28-1)
		chunk &= 1<<28 - 1
		if minChunk := (n + 1023) / 1024; chunk > 0 && chunk < minChunk {
			chunk = minChunk // at most 1024 chunks keep the reference loop fast
		}
		stride := chunk + gap&(1<<24-1)
		kind := Read
		if write {
			kind = Write
		}
		if math.IsNaN(t0) || math.IsInf(t0, 0) {
			t0 = 0
		}
		if per = math.Abs(per); math.IsNaN(per) || math.IsInf(per, 0) {
			per = 0
		}
		batch := FlowStatFor("task", "file", size, cfg)
		naive := FlowStatFor("task", "file", size, cfg)
		for i, start := range []float64{t0, t0 + 1e3} {
			batch.RecordStridedChunks(kind, off, n, chunk, stride, int(rep%4), start, per)
			naiveChunks(naive, kind, off, n, chunk, stride, int(rep%4), start, per)
			sameFlowState(t, "charge "+string(rune('1'+i)), batch, naive)
		}
		if batch.TrackedBlocks() > cfg.BlocksPerFile {
			t.Fatalf("tracked blocks = %d, exceeds bound %d", batch.TrackedBlocks(), cfg.BlocksPerFile)
		}
		inBounds(t, "fuzz", batch)
	})
}
