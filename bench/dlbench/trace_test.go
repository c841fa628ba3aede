package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	const ms = 1e6
	spans := []span{
		{ID: 1, Name: "pipeline", Start: 0, End: 100 * ms},
		// Overlapping children cover [10, 50] once; the third is clipped
		// to the parent's end.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
		{ID: 6, Name: "pipeline", Start: 200 * ms, End: 210 * ms},
	}
	self := selfTimes(spans)
	for name, want := range map[string][]float64{
		"pipeline": {50, 10}, "a": {20}, "b": {20}, "c": {30}, "d": {10},
	} {
		got := self[name]
		if len(got) != len(want) {
			t.Fatalf("%s self times %v, want %v", name, got, want)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("%s self times %v, want %v", name, got, want)
			}
		}
	}
	if d := durations(spans)["pipeline"]; d[0] != 100 || d[1] != 10 {
		t.Errorf("pipeline durations %v, want [100 10]", d)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 || len(allSpans(tr)) != 0 {
		t.Fatalf("nil tracer returned id %d", id)
	}
	a, b := newTracer(0), newTracer(1<<40)
	a.end(a.begin("x", 0, 1))
	b.end(b.begin("y", 0, 1))
	all := allSpans(a, b)
	if len(all) != 2 || all[0].ID == all[1].ID || all[0].End < all[0].Start {
		t.Fatalf("merged spans %+v", all)
	}
}
