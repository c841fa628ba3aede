package faults

import (
	"math"
	"testing"
)

func TestShouldFailIODeterministicAndRateBounded(t *testing.T) {
	s := &Schedule{Seed: 7, IOErrorRates: map[string]float64{"nfs": 0.1}}
	fails := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		a := s.ShouldFailIO("nfs", "task", i, 1)
		b := s.ShouldFailIO("nfs", "task", i, 1)
		if a != b {
			t.Fatalf("draw %d not deterministic", i)
		}
		if a {
			fails++
		}
	}
	got := float64(fails) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("empirical rate %v, want ~0.1", got)
	}
	if s.ShouldFailIO("ssd", "task", 0, 1) {
		t.Fatal("tier without a configured rate must never fail")
	}
	if !s.WithSeed(7).ShouldFailIO("nfs", "task", 3, 1) == s.ShouldFailIO("nfs", "task", 3, 1) {
		t.Fatal("same seed must reproduce the draw")
	}
	// Attempts re-draw: over many ops, retries must not be doomed to repeat
	// the first attempt's outcome.
	differs := false
	for i := 0; i < 1000 && !differs; i++ {
		differs = s.ShouldFailIO("nfs", "task", i, 1) != s.ShouldFailIO("nfs", "task", i, 2)
	}
	if !differs {
		t.Fatal("attempt number does not influence the draw")
	}
}

func TestWindowsAndBoundaries(t *testing.T) {
	s := &Schedule{
		Slowdowns: []Slowdown{{Tier: "nfs", Start: 10, End: 20, Factor: 0.5}, {Tier: "nfs", Start: 15, End: 30, Factor: 0.5}},
		Outages:   []Outage{{Tier: "wan", Start: 5, End: 8}},
	}
	if f := s.BandwidthFactor("nfs", 17); f != 0.25 {
		t.Fatalf("overlapping slowdowns compose: got %v, want 0.25", f)
	}
	if f := s.BandwidthFactor("nfs", 20); f != 0.5 {
		t.Fatalf("end is exclusive: got %v, want 0.5", f)
	}
	if s.Available("wan", 6) || !s.Available("wan", 8) || !s.Available("nfs", 6) {
		t.Fatal("outage window membership wrong")
	}
	b := s.TierBoundaries()
	wantNFS := []float64{10, 15, 20, 30}
	if len(b["nfs"]) != len(wantNFS) {
		t.Fatalf("nfs boundaries = %v, want %v", b["nfs"], wantNFS)
	}
	for i, v := range wantNFS {
		if b["nfs"][i] != v {
			t.Fatalf("nfs boundaries = %v, want %v", b["nfs"], wantNFS)
		}
	}
	if len(b["wan"]) != 2 {
		t.Fatalf("wan boundaries = %v, want [5 8]", b["wan"])
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "seed=42;crash=node0@30;ioerr=nfs:0.05;slow=nfs@100-200x0.5;outage=wan@50-80"
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || len(s.Crashes) != 1 || s.Crashes[0].Node != "node0" || s.Crashes[0].Time != 30 {
		t.Fatalf("parsed %+v", s)
	}
	if s.IOErrorRates["nfs"] != 0.05 || len(s.Slowdowns) != 1 || len(s.Outages) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	if got := s.String(); got != spec {
		t.Fatalf("round trip = %q, want %q", got, spec)
	}
	for _, bad := range []string{
		"seed", "crash=node0", "ioerr=nfs", "slow=nfs@1-2", "outage=wan@9-3",
		"slow=nfs@1-2x1.5", "ioerr=nfs:1.5", "bogus=1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.MaxAttempts != 4 || p.Backoff != 1 || p.MaxBackoff != 60 {
		t.Fatalf("defaults = %+v", p)
	}
	cases := map[int]float64{1: 0, 2: 1, 3: 2, 4: 4, 10: 60}
	for attempt, want := range cases {
		if got := p.Delay(attempt); got != want {
			t.Fatalf("Delay(%d) = %v, want %v", attempt, got, want)
		}
	}
}

func TestCrashProbability(t *testing.T) {
	if p := CrashProbability(0, 100); p != 0 {
		t.Fatalf("zero rate gives %v", p)
	}
	p1, p2 := CrashProbability(1, 600), CrashProbability(1, 1200)
	if p1 <= 0 || p1 >= 1 || p2 <= p1 {
		t.Fatalf("probabilities not monotone in window: %v, %v", p1, p2)
	}
	if math.Abs(CrashProbability(1, 3600)-(1-1/math.E)) > 1e-12 {
		t.Fatal("one expected crash per window should give 1-1/e")
	}
}

func TestParseSpecNetworkClauses(t *testing.T) {
	spec := "seed=1;partition=siteA|siteB@120-240;partition=a|b@10-20:failfast;degrade=wan@300-600x0.25;loss=lan:0.005;loss=wan:0.01"
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Partitions) != 2 {
		t.Fatalf("parsed %+v", s)
	}
	p0, p1 := s.Partitions[0], s.Partitions[1]
	if p0.A != "siteA" || p0.B != "siteB" || p0.Start != 120 || p0.End != 240 || p0.FailFast {
		t.Fatalf("partition 0 = %+v", p0)
	}
	if p1.A != "a" || p1.B != "b" || !p1.FailFast {
		t.Fatalf("partition 1 = %+v", p1)
	}
	if len(s.LinkDegrades) != 1 || s.LinkDegrades[0].Link != "wan" || s.LinkDegrades[0].Factor != 0.25 {
		t.Fatalf("degrades = %+v", s.LinkDegrades)
	}
	if s.LinkLoss["wan"] != 0.01 || s.LinkLoss["lan"] != 0.005 {
		t.Fatalf("loss = %+v", s.LinkLoss)
	}
	if got := s.String(); got != spec {
		t.Fatalf("round trip = %q, want %q", got, spec)
	}
	if s.Empty() {
		t.Fatal("network-only schedule must not be Empty")
	}
	if !s.HasNetworkFaults() {
		t.Fatal("HasNetworkFaults = false")
	}
	for _, bad := range []string{
		"partition=a@1-2",         // no pair
		"partition=a|@1-2",        // empty side
		"partition=a|a@1-2",       // same location twice
		"partition=a|b@5-5",       // empty window
		"partition=a|b@NaN-5",     // NaN start
		"partition=a|b@1-2:bogus", // unknown policy suffix
		"degrade=l@1-2x0",         // zero factor
		"degrade=l@1-2x1.5",       // amplifying factor
		"degrade=l@2-1x0.5",       // inverted window
		"degrade=l@0-1xNaN",       // NaN factor
		"loss=l:1",                // rate 1 never delivers
		"loss=l:-0.1",             // negative rate
		"loss=l:NaN",              // NaN rate
		"loss=l",                  // missing rate
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestPartitionStateAndLinkWindows(t *testing.T) {
	s := &Schedule{
		Partitions: []Partition{
			{A: "siteA", B: "siteB", Start: 10, End: 20},
			{A: "siteA", B: "siteB", Start: 15, End: 30, FailFast: true},
		},
		LinkDegrades: []LinkDegrade{
			{Link: "wan", Start: 0, End: 10, Factor: 0.5},
			{Link: "wan", Start: 5, End: 10, Factor: 0.5},
		},
		LinkLoss: map[string]float64{"wan": 0.02},
	}
	// Pair matching is unordered; outside any window there is no cut.
	if cut, _ := s.PartitionState("siteB", "siteA", 12); !cut {
		t.Fatal("reversed pair not matched")
	}
	if cut, _ := s.PartitionState("siteA", "siteB", 9); cut {
		t.Fatal("cut before the window opens")
	}
	if cut, _ := s.PartitionState("siteA", "siteB", 20); !cut {
		t.Fatal("overlapping second window must keep the cut open")
	}
	if cut, _ := s.PartitionState("siteA", "siteB", 30); cut {
		t.Fatal("end is exclusive")
	}
	// Fail-fast applies while any fail-fast window is active.
	if _, ff := s.PartitionState("siteA", "siteB", 12); ff {
		t.Fatal("fail-fast before its window")
	}
	if _, ff := s.PartitionState("siteA", "siteB", 17); !ff {
		t.Fatal("fail-fast window not honored")
	}
	// Overlapping degrade windows compose multiplicatively, end exclusive.
	if f := s.LinkFactor("wan", 7); f != 0.25 {
		t.Fatalf("LinkFactor = %v, want 0.25", f)
	}
	if f := s.LinkFactor("wan", 10); f != 1 {
		t.Fatalf("LinkFactor at end = %v, want 1", f)
	}
	if f := s.LinkFactor("other", 7); f != 1 {
		t.Fatalf("unknown link factor = %v, want 1", f)
	}
	if r := s.LinkLossRate("wan"); r != 0.02 {
		t.Fatalf("LinkLossRate = %v", r)
	}
	if r := s.LinkLossRate("other"); r != 0 {
		t.Fatalf("unknown link loss = %v", r)
	}
}

func TestLinkDrawsDeterministicAndBounded(t *testing.T) {
	const n = 20_000
	lost := 0
	for i := 0; i < n; i++ {
		a := LinkChunkLost(9, "wan", "task", 1, 1, 0, i, 0.1)
		if a != LinkChunkLost(9, "wan", "task", 1, 1, 0, i, 0.1) {
			t.Fatalf("chunk draw %d not deterministic", i)
		}
		if a {
			lost++
		}
	}
	if got := float64(lost) / n; math.Abs(got-0.1) > 0.01 {
		t.Fatalf("empirical loss rate %v, want ~0.1", got)
	}
	// Rounds re-draw: a retransmitted chunk is not doomed to loop forever.
	differs := false
	for i := 0; i < 1000 && !differs; i++ {
		differs = LinkChunkLost(9, "wan", "task", 1, 1, 0, i, 0.5) != LinkChunkLost(9, "wan", "task", 1, 1, 1, i, 0.5)
	}
	if !differs {
		t.Fatal("round number does not influence the draw")
	}
	var lo, hi float64 = 2, -1
	for i := 0; i < 1000; i++ {
		j := LinkJitter(9, "wan", "task", i, 1)
		if j != LinkJitter(9, "wan", "task", i, 1) {
			t.Fatalf("jitter draw %d not deterministic", i)
		}
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	if lo < 0 || hi >= 1 {
		t.Fatalf("jitter draws outside [0,1): min %v max %v", lo, hi)
	}
}
