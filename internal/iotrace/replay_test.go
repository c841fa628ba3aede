package iotrace

import (
	"math"
	"testing"

	"datalife/internal/blockstats"
)

// TestApplyEventRejectsBadGeometry feeds ApplyEvent access geometry that can
// arrive from the serve wire but that no histogram can represent: each event
// must be rejected before it creates a flow, and promptly (an accepted
// 2^30-chunk batch takes about a second to charge; an offset past 2^62
// never finishes rescaling). Geometry at the limits stays accepted.
func TestApplyEventRejectsBadGeometry(t *testing.T) {
	ev := func(kind EventKind, off, n, chunk int64, rep int) TraceEvent {
		return TraceEvent{Kind: kind, Task: "t", File: "f", Off: off, Len: n, Chunk: chunk, Rep: rep, Dt: 1}
	}
	bad := []struct {
		name string
		ev   TraceEvent
	}{
		{"negative offset", ev(EvRead, -1<<40, 10, 0, 0)},
		{"negative length", ev(EvWrite, 0, -1, 0, 0)},
		{"negative chunk", ev(EvReadChunks, 0, 1<<20, -4096, 1)},
		{"extent overflows int64", ev(EvWrite, math.MaxInt64-4, 8, 0, 0)},
		{"extent past MaxExtent", ev(EvRead, 1<<62+1, 10, 0, 0)},
		{"one access per byte of a GiB", ev(EvReadChunks, 0, 1<<30, 1, 1)},
		{"maximal wire repeat count", ev(EvWriteChunks, 0, 4096, 4096, math.MaxInt32)},
		{"negative file size hint", TraceEvent{Kind: EvOpen, Task: "t", File: "f", FileSize: -1}},
		{"file size hint past MaxExtent", TraceEvent{Kind: EvOpen, Task: "t", File: "f", FileSize: math.MaxInt64}},
	}
	col := MustCollector(blockstats.DefaultConfig())
	for _, tc := range bad {
		if err := col.ApplyEvent(tc.ev); err == nil {
			t.Fatalf("%s: ApplyEvent(%+v) accepted", tc.name, tc.ev)
		}
	}
	if n := col.NumFlows(); n != 0 {
		t.Fatalf("rejected events created %d flows", n)
	}

	good := []TraceEvent{
		ev(EvRead, blockstats.MaxExtent-10, 10, 0, 0),
		ev(EvReadChunks, 0, maxChargeAccesses, 1, 1),
		ev(EvWriteChunks, 0, 4096, 64, maxChargeAccesses/64),
		ev(EvWriteChunks, 0, 0, 0, math.MaxInt32), // empty: charges nothing
		{Kind: EvOpen, Task: "t", File: "g", FileSize: blockstats.MaxExtent},
	}
	for _, e := range good {
		if err := col.ApplyEvent(e); err != nil {
			t.Fatalf("ApplyEvent(%+v): %v", e, err)
		}
	}
	fl := col.Flow("t", "f", 0)
	if want := uint64(maxChargeAccesses + 1); fl.ReadOps != want {
		t.Fatalf("ReadOps = %d, want %d", fl.ReadOps, want)
	}
	for _, b := range fl.Blocks() {
		if b < 0 || b >= int64(col.Config().BlocksPerFile) {
			t.Fatalf("block index %d outside [0, %d)", b, col.Config().BlocksPerFile)
		}
	}
}
