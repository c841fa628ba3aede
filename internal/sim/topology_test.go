package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"datalife/internal/faults"
)

const tmb = int64(1) << 20

// netTopology pins the test cluster's nodes at "edge" and the shared nfs
// tier at "hub", joined by the given links.
func netTopology(links ...*Link) *Topology {
	return &Topology{
		Links:      links,
		TierLoc:    map[string]string{"nfs": "hub"},
		DefaultLoc: "edge",
		Seed:       1,
	}
}

// writeTask builds a task writing bytes to path on the default (nfs) tier.
func writeTask(name, path string, bytes, chunk int64) *Task {
	return &Task{Name: name, Script: []Op{
		Open(path), Write(path, bytes, chunk), Close(path),
	}}
}

func runNet(t *testing.T, tp *Topology, sched *faults.Schedule, tasks ...*Task) (*Result, error) {
	t.Helper()
	fs, c := testCluster(t, 2, 2)
	eng := &Engine{FS: fs, Cluster: c, Topology: tp, Faults: sched}
	return eng.Run(&Workload{Name: "net", Tasks: tasks})
}

// TestTrivialTopologyByteIdentical is the byte-identity gate: a trivial
// topology (links all zero) with no network fault clauses must produce a
// Result deeply equal to a run with no topology at all — same floats, same
// maps, no link accounting.
func TestTrivialTopologyByteIdentical(t *testing.T) {
	run := func(tp *Topology) *Result {
		res, err := runNet(t, tp, nil,
			writeTask("w0", "data/a", 8*tmb, tmb),
			writeTask("w1", "data/b", 8*tmb, tmb))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	trivial := run(netTopology(&Link{Name: "up", A: "edge", B: "hub"}))
	if !reflect.DeepEqual(plain, trivial) {
		t.Fatalf("trivial topology changed the result:\n  plain:   %+v\n  trivial: %+v", plain, trivial)
	}
	if trivial.LinkBytes != nil {
		t.Fatalf("trivial topology allocated link accounting: %v", trivial.LinkBytes)
	}
}

// TestLinkBandwidthCap caps a 200 MB/s tier behind a 10 MB/s link: the
// link, not the tier, must set the transfer time, and the link's byte
// accounting must see the payload.
func TestLinkBandwidthCap(t *testing.T) {
	link := &Link{Name: "up", A: "edge", B: "hub", BWAB: 10e6, BWBA: 10e6}
	res, err := runNet(t, netTopology(link), nil, writeTask("w", "data/a", 64*tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(64*tmb) / 10e6 // ≈ 6.7 s
	if res.Makespan < want || res.Makespan > want+1 {
		t.Fatalf("makespan %v, want about %v (link-capped)", res.Makespan, want)
	}
	if got := res.LinkBytes["up"]; got != uint64(64*tmb) {
		t.Fatalf("LinkBytes[up] = %d, want %d", got, 64*tmb)
	}

	// Two concurrent writers from different nodes share the direction
	// equally: same total bytes, same total time.
	t0 := writeTask("w0", "data/a", 32*tmb, 0)
	t1 := writeTask("w1", "data/b", 32*tmb, 0)
	t0.Node, t1.Node = "node0", "node1"
	shared, err := runNet(t, netTopology(link), nil, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Makespan < want || shared.Makespan > want+1 {
		t.Fatalf("shared makespan %v, want about %v (fair-shared link)", shared.Makespan, want)
	}
}

// TestLinkLatencyCharged charges the link's one-way latency per chunk access
// on top of the tier latency.
func TestLinkLatencyCharged(t *testing.T) {
	base, err := runNet(t, netTopology(&Link{Name: "up", A: "edge", B: "hub", LatencyS: 0}),
		nil, writeTask("w", "data/a", tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	// The zero-latency link is trivial, so base is the un-networked time.
	slow, err := runNet(t, netTopology(&Link{Name: "up", A: "edge", B: "hub", LatencyS: 0.5}),
		nil, writeTask("w", "data/a", tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d := slow.Makespan - base.Makespan; d < 0.499 || d > 0.6 {
		t.Fatalf("latency delta %v, want about 0.5", d)
	}
}

// TestLinkJitterDeterministic: jitter adds seeded extra latency — two runs
// with the same seed agree exactly; a different topology seed may differ
// but stays within [0, JitterS) per access.
func TestLinkJitterDeterministic(t *testing.T) {
	mk := func(seed uint64) *Topology {
		tp := netTopology(&Link{Name: "up", A: "edge", B: "hub", LatencyS: 0.1, JitterS: 0.2})
		tp.Seed = seed
		return tp
	}
	a, err := runNet(t, mk(1), nil, writeTask("w", "data/a", tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runNet(t, mk(1), nil, writeTask("w", "data/a", tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
	lat, err := runNet(t, netTopology(&Link{Name: "up", A: "edge", B: "hub", LatencyS: 0.1}),
		nil, writeTask("w", "data/a", tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Makespan - lat.Makespan; d < 0 || d >= 0.2 {
		t.Fatalf("jitter delta %v, want in [0, 0.2)", d)
	}
}

// TestLinkLossRetransmits: a lossy link inflates the flow (extra bytes,
// extra latency) and the link accounting records the retransmissions.
// Seeded draws make repeat runs bit-identical.
func TestLinkLossRetransmits(t *testing.T) {
	lossy := netTopology(&Link{Name: "up", A: "edge", B: "hub", LossRate: 0.25, BWAB: 50e6, BWBA: 50e6})
	res, err := runNet(t, lossy, nil, writeTask("w", "data/a", 32*tmb, tmb))
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkRetransmits["up"] == 0 {
		t.Fatal("25% loss on 32 chunks produced no retransmissions")
	}
	if res.LinkBytes["up"] <= uint64(32*tmb) {
		t.Fatalf("LinkBytes[up] = %d, want > payload %d", res.LinkBytes["up"], 32*tmb)
	}
	clean, err := runNet(t, netTopology(&Link{Name: "up", A: "edge", B: "hub", BWAB: 50e6, BWBA: 50e6}),
		nil, writeTask("w", "data/a", 32*tmb, tmb))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= clean.Makespan {
		t.Fatalf("lossy run (%v) not slower than clean run (%v)", res.Makespan, clean.Makespan)
	}
	again, err := runNet(t, lossy, nil, writeTask("w", "data/a", 32*tmb, tmb))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("seeded loss diverged across runs:\n  %+v\n  %+v", res, again)
	}
}

// TestLinkDegradeWindow: a degrade=link@s-exf clause halves the link
// bandwidth inside the window.
func TestLinkDegradeWindow(t *testing.T) {
	link := &Link{Name: "up", A: "edge", B: "hub", BWAB: 10e6, BWBA: 10e6}
	sched := &faults.Schedule{Seed: 1,
		LinkDegrades: []faults.LinkDegrade{{Link: "up", Start: 0, End: 1000, Factor: 0.5}}}
	res, err := runNet(t, netTopology(link), sched, writeTask("w", "data/a", 32*tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(32*tmb) / 5e6 // half bandwidth ≈ 6.7 s
	if res.Makespan < want || res.Makespan > want+1 {
		t.Fatalf("degraded makespan %v, want about %v", res.Makespan, want)
	}
}

// TestPartitionStallResume: the default partition policy freezes crossing
// flows for the window and lets them drain after the heal — no failures,
// no data loss, just waiting.
func TestPartitionStallResume(t *testing.T) {
	link := &Link{Name: "up", A: "edge", B: "hub", BWAB: 50e6, BWBA: 50e6}
	sched := &faults.Schedule{Seed: 1,
		Partitions: []faults.Partition{{A: "edge", B: "hub", Start: 0, End: 5}}}
	res, err := runNet(t, netTopology(link), sched, writeTask("w", "data/a", 8*tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 5 {
		t.Fatalf("makespan %v, want >= 5 (stalled through the cut)", res.Makespan)
	}
	if res.PartitionStalls == 0 {
		t.Fatal("no stall episode recorded")
	}
	if len(res.Failures) != 0 {
		t.Fatalf("stall policy must not fail tasks, got %v", res.Failures)
	}
}

// TestPartitionFailFastRecovers: the fail-fast policy fails the crossing op
// with a typed retryable error; the capped backoff carries the task past
// the heal and the retried op succeeds with nothing re-staged.
func TestPartitionFailFastRecovers(t *testing.T) {
	link := &Link{Name: "up", A: "edge", B: "hub", BWAB: 50e6, BWBA: 50e6}
	sched := &faults.Schedule{Seed: 1,
		Partitions: []faults.Partition{{A: "edge", B: "hub", Start: 0, End: 2, FailFast: true}}}
	res, err := runNet(t, netTopology(link), sched, writeTask("w", "data/a", 8*tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 fails at t=0, attempt 2 at t=1 (still cut), attempt 3 at
	// t=3 crosses the healed link.
	if got := res.Attempts["w"]; got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if len(res.Failures) != 2 {
		t.Fatalf("failures = %d, want 2", len(res.Failures))
	}
	for _, f := range res.Failures {
		if f.Kind != "partition" || !f.Recovered {
			t.Fatalf("failure %+v, want recovered partition", f)
		}
	}
	if res.Restagings != 0 || res.LostFiles != 0 {
		t.Fatalf("partition recovery re-staged data (restagings=%d lost=%d); partitions lose nothing",
			res.Restagings, res.LostFiles)
	}
}

// TestPartitionFailFastExhausts: a cut outlasting the retry budget surfaces
// the typed *TaskError with the partition sentinel and cause.
func TestPartitionFailFastExhausts(t *testing.T) {
	link := &Link{Name: "up", A: "edge", B: "hub", BWAB: 50e6, BWBA: 50e6}
	sched := &faults.Schedule{Seed: 1,
		Partitions: []faults.Partition{{A: "edge", B: "hub", Start: 0, End: 1e9, FailFast: true}}}
	_, err := runNet(t, netTopology(link), sched, writeTask("w", "data/a", 8*tmb, 0))
	if err == nil {
		t.Fatal("run must fail: the partition never heals")
	}
	if !errors.Is(err, ErrPartition) {
		t.Fatalf("errors.Is(err, ErrPartition) = false for %v", err)
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Kind != FailPartition || te.Task != "w" {
		t.Fatalf("errors.As gave %+v", te)
	}
	if !te.Kind.Retryable() {
		t.Fatal("FailPartition must be retryable")
	}
	var pe *PartitionError
	if !errors.As(err, &pe) || pe.Link != "up" {
		t.Fatalf("errors.As(*PartitionError) gave %+v", pe)
	}
	if !strings.Contains(pe.Error(), "up") {
		t.Fatalf("PartitionError message %q does not name the link", pe.Error())
	}
}

// TestPartitionFailFastMidFlight cuts the link while a transfer is in
// flight: the linkChange boundary fails the crossing flow (not just new
// ops), and the retry succeeds after the heal.
func TestPartitionFailFastMidFlight(t *testing.T) {
	link := &Link{Name: "up", A: "edge", B: "hub", BWAB: 10e6, BWBA: 10e6}
	// 64 MB at 10 MB/s takes ~6.7 s; the cut opens at 2 s, mid-transfer.
	sched := &faults.Schedule{Seed: 1,
		Partitions: []faults.Partition{{A: "edge", B: "hub", Start: 2, End: 4, FailFast: true}}}
	res, err := runNet(t, netTopology(link), sched, writeTask("w", "data/a", 64*tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts["w"] < 2 {
		t.Fatalf("attempts = %d, want >= 2 (mid-flight cut must fail the flow)", res.Attempts["w"])
	}
	found := false
	for _, f := range res.Failures {
		if f.Kind == "partition" && f.Recovered {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recovered partition failure in %v", res.Failures)
	}
}

// TestMultiHopRoute: a two-link path charges and accounts both links.
func TestMultiHopRoute(t *testing.T) {
	tp := &Topology{
		Links: []*Link{
			{Name: "l1", A: "edge", B: "mid", BWAB: 50e6, BWBA: 50e6},
			{Name: "l2", A: "mid", B: "hub", BWAB: 10e6, BWBA: 10e6},
		},
		TierLoc:    map[string]string{"nfs": "hub"},
		DefaultLoc: "edge",
		Seed:       1,
	}
	res, err := runNet(t, tp, nil, writeTask("w", "data/a", 16*tmb, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkBytes["l1"] != uint64(16*tmb) || res.LinkBytes["l2"] != uint64(16*tmb) {
		t.Fatalf("LinkBytes = %v, want both links charged %d", res.LinkBytes, 16*tmb)
	}
	want := float64(16*tmb) / 10e6 // the narrow second hop dominates
	if res.Makespan < want || res.Makespan > want+1 {
		t.Fatalf("makespan %v, want about %v (min over hops)", res.Makespan, want)
	}
}

// TestNoRouteFailsConfig: an unroutable node fails the op as FailConfig —
// a topology mistake, not a transient.
func TestNoRouteFailsConfig(t *testing.T) {
	tp := &Topology{
		Links:      []*Link{{Name: "up", A: "edge", B: "hub", BWAB: 10e6, BWBA: 10e6}},
		NodeLoc:    map[string]string{"node0": "island", "node1": "island"},
		TierLoc:    map[string]string{"nfs": "hub"},
		DefaultLoc: "edge",
		Seed:       1,
	}
	_, err := runNet(t, tp, nil, writeTask("w", "data/a", tmb, 0))
	if err == nil || !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for unroutable node, got %v", err)
	}
}

// TestNetworkFaultsRequireTopology: partition/degrade/loss clauses with no
// Topology attached are a configuration error, not a silent no-op.
func TestNetworkFaultsRequireTopology(t *testing.T) {
	sched := &faults.Schedule{Seed: 1,
		Partitions: []faults.Partition{{A: "a", B: "b", Start: 0, End: 1}}}
	_, err := runNet(t, nil, sched, writeTask("w", "data/a", tmb, 0))
	if err == nil || !strings.Contains(err.Error(), "Topology") {
		t.Fatalf("want missing-topology error, got %v", err)
	}
}

// TestNetworkClausesValidatedAgainstTopology: clauses naming unknown links
// or uncuttable location pairs are rejected up front.
func TestNetworkClausesValidatedAgainstTopology(t *testing.T) {
	tp := netTopology(&Link{Name: "up", A: "edge", B: "hub", BWAB: 10e6, BWBA: 10e6})
	cases := []*faults.Schedule{
		{Seed: 1, LinkDegrades: []faults.LinkDegrade{{Link: "nope", Start: 0, End: 1, Factor: 0.5}}},
		{Seed: 1, LinkLoss: map[string]float64{"nope": 0.1}},
		{Seed: 1, Partitions: []faults.Partition{{A: "edge", B: "mars", Start: 0, End: 1}}},
	}
	for i, sched := range cases {
		if _, err := runNet(t, tp, sched, writeTask("w", "data/a", tmb, 0)); err == nil {
			t.Errorf("case %d: invalid network clause accepted", i)
		}
	}
}

// TestNaiveEquivalenceUnderTopology pits the incremental link-aware
// repricer against the naive reference under link caps, loss, a degrade
// window, and a stalling partition at once.
func TestNaiveEquivalenceUnderTopology(t *testing.T) {
	link := &Link{Name: "up", A: "edge", B: "hub", LatencyS: 0.01, JitterS: 0.02,
		LossRate: 0.1, BWAB: 20e6, BWBA: 20e6}
	sched := &faults.Schedule{Seed: 5,
		Partitions:   []faults.Partition{{A: "edge", B: "hub", Start: 1, End: 3}},
		LinkDegrades: []faults.LinkDegrade{{Link: "up", Start: 4, End: 8, Factor: 0.5}},
		LinkLoss:     map[string]float64{"up": 0.05},
	}
	run := func(naive bool) *Result {
		fs, c := testCluster(t, 2, 2)
		t0 := writeTask("w0", "data/a", 16*tmb, tmb)
		t1 := writeTask("w1", "data/b", 16*tmb, tmb)
		t0.Node, t1.Node = "node0", "node1"
		eng := &Engine{FS: fs, Cluster: c, Topology: netTopology(link), Faults: sched}
		eng.SetNaive(naive)
		res, err := eng.Run(&Workload{Name: "net", Tasks: []*Task{t0, t1}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, ref := run(false), run(true)
	if !reflect.DeepEqual(inc, ref) {
		t.Fatalf("incremental and naive repricers diverge under topology:\n  inc: %+v\n  ref: %+v", inc, ref)
	}
	if inc.PartitionStalls == 0 || inc.LinkRetransmits["up"] == 0 {
		t.Fatalf("fixture exercised no stall/loss (stalls=%d retx=%v); equivalence is vacuous",
			inc.PartitionStalls, inc.LinkRetransmits)
	}
}
