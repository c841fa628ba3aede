package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
)

func streamDigest(seed uint64) string {
	h := sha256.New()
	for _, b := range genDAG(2000, seed).batches(serveBatch) {
		for _, ev := range b {
			fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%d|%x|%x\n", ev.Kind, ev.Task, ev.File,
				ev.FileSize, ev.Off, ev.Len, ev.Chunk, ev.Rep, math.Float64bits(ev.T), math.Float64bits(ev.Dt))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := streamDigest(7), streamDigest(7)
	if a != b {
		t.Fatalf("same seed gave streams %s and %s", a, b)
	}
	if c := streamDigest(8); c == a {
		t.Fatalf("seeds 7 and 8 gave the same stream %s", a)
	}
	if streamSeed(1, 0) == streamSeed(1, 1) || streamSeed(1, 0) == streamSeed(2, 0) {
		t.Fatal("derived stream seeds collide")
	}
}

func TestDependencyCountsAreUniform(t *testing.T) {
	const n = 30000
	d := genDAG(n, 1)
	var counts [4]int
	for _, task := range d.tasks {
		counts[len(task.reads)]++
		for i, rd := range task.reads {
			if int(rd.slice) >= dagSlices || readsFile(task.reads[:i], rd.file) {
				t.Fatalf("bad read %+v in %+v", rd, task.reads)
			}
		}
	}
	if counts[0] != 0 {
		t.Fatalf("%d tasks read nothing", counts[0])
	}
	for k := 1; k <= 3; k++ {
		// Binomial sd is sqrt(n·1/3·2/3) ≈ 82; allow about five of them.
		if share := float64(counts[k]) / n; math.Abs(share-1.0/3) > 0.014 {
			t.Errorf("%d-read tasks: %d of %d (share %.4f), want about a third", k, counts[k], n, share)
		}
	}
}

func TestDAGReadsOnlyEarlierOutputs(t *testing.T) {
	d := genDAG(1000, 3)
	for i, task := range d.tasks {
		for _, rd := range task.reads {
			if p := int(rd.file) - dagShared; p >= 0 && (p >= i || p/dagWidth >= i/dagWidth) {
				t.Fatalf("task %d reads the output of task %d from its own or a later layer", i, p)
			}
		}
	}
	if got, want := len(d.batches(serveBatch)), (d.numEvents()+serveBatch-1)/serveBatch; got != want {
		t.Fatalf("%d batches, want %d", got, want)
	}
}
