// Package faults defines deterministic, seeded fault schedules for the
// discrete-event simulator. The paper's coordination strategies (Table 1)
// deliberately move data onto volatile node-local tiers because DFL analysis
// shows short lifetimes; this package supplies the failure model that makes
// that trade-off measurable: virtual-time node crashes, transient per-tier
// I/O error rates, tier bandwidth degradation windows, WAN link outages, and
// — against a sim.Topology — network partitions, per-link bandwidth
// degradation, and per-chunk link loss.
//
// Every decision is a pure function of the schedule's seed and the failure
// coordinates (task name, op index, attempt, tier), never of host entropy or
// event interleaving, so the same seed replays bit-identically. A nil or
// empty schedule injects nothing; the engine's fault-free path is untouched.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// NodeCrash fails a node at a fixed virtual time: every task running on the
// node fails, and all data on its node-local tiers is lost. The node stays
// down for the rest of the run.
type NodeCrash struct {
	// Node is the node name (e.g. "node0").
	Node string
	// Time is the crash instant in virtual seconds.
	Time float64
}

// Slowdown degrades a tier's bandwidth during [Start, End): both read and
// write bandwidth are multiplied by Factor.
type Slowdown struct {
	Tier       string
	Start, End float64
	// Factor is the bandwidth multiplier in (0, 1].
	Factor float64
}

// Outage makes a tier completely unavailable during [Start, End): in-flight
// flows stall and resume when the window closes (a WAN link loss, not data
// loss).
type Outage struct {
	Tier       string
	Start, End float64
}

// Partition severs the network between two named topology locations during
// [Start, End): every link that directly joins A and B is cut. By default
// flows crossing the cut stall and resume when the window closes; with
// FailFast set, crossing ops fail immediately with a typed, retryable
// partition error, so tasks fall back to the engine's capped backoff and
// succeed once the partition heals. Unlike a node crash, no data is lost —
// the bytes are still there on the far side.
type Partition struct {
	// A and B are the two topology location names the cut separates.
	A, B       string
	Start, End float64
	// FailFast fails crossing ops immediately instead of stalling them.
	FailFast bool
}

// LinkDegrade multiplies a named network link's bandwidth (both directions)
// by Factor during [Start, End) — a congested or flapping WAN circuit, as
// opposed to the total cut a Partition models.
type LinkDegrade struct {
	Link       string
	Start, End float64
	// Factor is the bandwidth multiplier in (0, 1].
	Factor float64
}

// Schedule is one run's deterministic fault plan. The zero value injects
// nothing.
type Schedule struct {
	// Seed keys every pseudo-random decision (transient error draws).
	Seed uint64
	// Crashes lists node crashes in virtual time.
	Crashes []NodeCrash
	// IOErrorRates maps tier name to the probability in [0, 1] that any
	// single I/O operation on that tier fails with a transient error.
	IOErrorRates map[string]float64
	// Slowdowns are bandwidth-degradation windows.
	Slowdowns []Slowdown
	// Outages are total-unavailability windows.
	Outages []Outage
	// Partitions are network cuts between topology locations.
	Partitions []Partition
	// LinkDegrades are per-link bandwidth-degradation windows.
	LinkDegrades []LinkDegrade
	// LinkLoss maps link name to an extra per-chunk loss probability in
	// [0, 1) that composes with the link's intrinsic loss rate.
	LinkLoss map[string]float64
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Crashes) == 0 && len(s.IOErrorRates) == 0 &&
		len(s.Slowdowns) == 0 && len(s.Outages) == 0 && !s.HasNetworkFaults())
}

// HasNetworkFaults reports whether the schedule carries any clause that
// needs a sim.Topology to act on (partitions, link degradation, link loss).
func (s *Schedule) HasNetworkFaults() bool {
	return s != nil && (len(s.Partitions) > 0 || len(s.LinkDegrades) > 0 || len(s.LinkLoss) > 0)
}

// Validate checks window sanity: non-negative times, Start < End, and
// slowdown factors in (0, 1].
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for _, c := range s.Crashes {
		if c.Node == "" {
			return fmt.Errorf("faults: crash with empty node")
		}
		if c.Time < 0 || math.IsNaN(c.Time) {
			return fmt.Errorf("faults: crash of %s at invalid time %v", c.Node, c.Time)
		}
	}
	for tier, rate := range s.IOErrorRates {
		if rate < 0 || rate > 1 || math.IsNaN(rate) {
			return fmt.Errorf("faults: I/O error rate for tier %s out of [0,1]: %v", tier, rate)
		}
	}
	for _, d := range s.Slowdowns {
		// !(End > Start) rather than End <= Start so a NaN endpoint is
		// rejected instead of slipping through both comparisons.
		if d.Start < 0 || math.IsNaN(d.Start) || !(d.End > d.Start) {
			return fmt.Errorf("faults: slowdown on %s has invalid window [%v,%v)", d.Tier, d.Start, d.End)
		}
		if !(d.Factor > 0) || d.Factor > 1 {
			return fmt.Errorf("faults: slowdown on %s has factor %v outside (0,1]", d.Tier, d.Factor)
		}
	}
	for _, o := range s.Outages {
		if o.Start < 0 || math.IsNaN(o.Start) || !(o.End > o.Start) {
			return fmt.Errorf("faults: outage on %s has invalid window [%v,%v)", o.Tier, o.Start, o.End)
		}
	}
	for _, p := range s.Partitions {
		if p.A == "" || p.B == "" {
			return fmt.Errorf("faults: partition with empty location name")
		}
		if p.A == p.B {
			return fmt.Errorf("faults: partition %s|%s does not separate two locations", p.A, p.B)
		}
		if p.Start < 0 || math.IsNaN(p.Start) || !(p.End > p.Start) {
			return fmt.Errorf("faults: partition %s|%s has invalid window [%v,%v)", p.A, p.B, p.Start, p.End)
		}
	}
	for _, d := range s.LinkDegrades {
		if d.Link == "" {
			return fmt.Errorf("faults: degrade with empty link name")
		}
		if d.Start < 0 || math.IsNaN(d.Start) || !(d.End > d.Start) {
			return fmt.Errorf("faults: degrade on %s has invalid window [%v,%v)", d.Link, d.Start, d.End)
		}
		if !(d.Factor > 0) || d.Factor > 1 {
			return fmt.Errorf("faults: degrade on %s has factor %v outside (0,1]", d.Link, d.Factor)
		}
	}
	for link, rate := range s.LinkLoss {
		if link == "" {
			return fmt.Errorf("faults: loss with empty link name")
		}
		// A rate of 1 would retransmit every chunk forever; reject it.
		if !(rate >= 0) || rate >= 1 {
			return fmt.Errorf("faults: loss rate for link %s out of [0,1): %v", link, rate)
		}
	}
	return nil
}

// WithSeed returns a shallow copy of the schedule under a different seed —
// the unit of a failure sweep.
func (s *Schedule) WithSeed(seed uint64) *Schedule {
	if s == nil {
		return &Schedule{Seed: seed}
	}
	c := *s
	c.Seed = seed
	return &c
}

// ShouldFailIO draws the deterministic transient-error decision for one I/O
// operation: task tk's op at script index opIdx, attempt number attempt
// (1-based), against tier. Retries re-draw, so a transient error clears with
// high probability on the next attempt.
func (s *Schedule) ShouldFailIO(tier, task string, opIdx, attempt int) bool {
	if s == nil || len(s.IOErrorRates) == 0 {
		return false
	}
	rate, ok := s.IOErrorRates[tier]
	if !ok || rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := s.Seed ^ 0x9e3779b97f4a7c15
	h = mix(h ^ hashString(task))
	h = mix(h ^ hashString(tier))
	h = mix(h ^ uint64(opIdx)<<32 ^ uint64(uint32(attempt)))
	return unit(h) < rate
}

// BandwidthFactor returns the product of all slowdown factors active on the
// tier at virtual time t (1 when none are).
func (s *Schedule) BandwidthFactor(tier string, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, d := range s.Slowdowns {
		if d.Tier == tier && t >= d.Start && t < d.End {
			f *= d.Factor
		}
	}
	return f
}

// Available reports whether the tier is reachable at virtual time t (false
// inside an outage window).
func (s *Schedule) Available(tier string, t float64) bool {
	if s == nil {
		return true
	}
	for _, o := range s.Outages {
		if o.Tier == tier && t >= o.Start && t < o.End {
			return false
		}
	}
	return true
}

// TierBoundaries returns, per tier, the sorted virtual times at which the
// tier's bandwidth factor or availability changes. The engine schedules a
// re-share event at each boundary so paused or degraded flows are
// recomputed exactly when windows open and close.
func (s *Schedule) TierBoundaries() map[string][]float64 {
	if s == nil {
		return nil
	}
	set := make(map[string]map[float64]struct{})
	add := func(tier string, t float64) {
		if set[tier] == nil {
			set[tier] = make(map[float64]struct{})
		}
		set[tier][t] = struct{}{}
	}
	for _, d := range s.Slowdowns {
		add(d.Tier, d.Start)
		add(d.Tier, d.End)
	}
	for _, o := range s.Outages {
		add(o.Tier, o.Start)
		add(o.Tier, o.End)
	}
	out := make(map[string][]float64, len(set))
	for tier, ts := range set {
		times := make([]float64, 0, len(ts))
		for t := range ts {
			times = append(times, t)
		}
		sort.Float64s(times)
		out[tier] = times
	}
	return out
}

// PartitionState reports whether the location pair (a, b) — unordered — is
// cut at virtual time t, and whether any active cut demands fail-fast
// handling (stall is the default when policies disagree only in windows that
// don't overlap t).
func (s *Schedule) PartitionState(a, b string, t float64) (cut, failFast bool) {
	if s == nil {
		return false, false
	}
	for _, p := range s.Partitions {
		if t < p.Start || t >= p.End {
			continue
		}
		if (p.A == a && p.B == b) || (p.A == b && p.B == a) {
			cut = true
			if p.FailFast {
				failFast = true
			}
		}
	}
	return cut, failFast
}

// LinkFactor returns the product of all degrade factors active on the link
// at virtual time t (1 when none are).
func (s *Schedule) LinkFactor(link string, t float64) float64 {
	if s == nil || len(s.LinkDegrades) == 0 {
		return 1
	}
	f := 1.0
	for _, d := range s.LinkDegrades {
		if d.Link == link && t >= d.Start && t < d.End {
			f *= d.Factor
		}
	}
	return f
}

// LinkLossRate returns the schedule's extra per-chunk loss probability for
// the link (0 when none is set).
func (s *Schedule) LinkLossRate(link string) float64 {
	if s == nil {
		return 0
	}
	return s.LinkLoss[link]
}

// LinkJitter returns a deterministic jitter fraction in [0, 1) for one
// flow's traversal of a link, keyed — like every fault draw — purely by the
// seed and the failure coordinates. The engine scales it by the link's
// configured jitter bound.
func LinkJitter(seed uint64, link, task string, opIdx, attempt int) float64 {
	h := seed ^ 0xd1b54a32d192ed03
	h = mix(h ^ hashString(link))
	h = mix(h ^ hashString(task))
	h = mix(h ^ uint64(opIdx)<<32 ^ uint64(uint32(attempt)))
	return unit(h)
}

// LinkChunkLost draws the deterministic per-chunk loss decision for chunk
// number chunk of the given op's transfer over a link, in retransmission
// round round (0 for the first send). Each round re-draws, so a retransmit
// clears with probability 1-rate.
func LinkChunkLost(seed uint64, link, task string, opIdx, attempt, round, chunk int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := seed ^ 0xa24baed4963ee407
	h = mix(h ^ hashString(link))
	h = mix(h ^ hashString(task))
	h = mix(h ^ uint64(opIdx)<<32 ^ uint64(uint32(attempt)))
	h = mix(h ^ uint64(round)<<32 ^ uint64(uint32(chunk)))
	return unit(h) < rate
}

// RetryPolicy caps per-task recovery: how many attempts a task gets and how
// the virtual-time backoff between them grows.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per task including the first
	// (default 4).
	MaxAttempts int
	// Backoff is the delay before the second attempt in virtual seconds
	// (default 1); it doubles per subsequent attempt.
	Backoff float64
	// MaxBackoff caps the delay (default 60).
	MaxBackoff float64
}

// DefaultRetryPolicy is the engine's policy when faults are active and no
// override is set.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: 1, MaxBackoff: 60}
}

// WithDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = d.Backoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	return p
}

// Delay returns the capped exponential backoff before the given attempt
// (attempt 2 waits Backoff, attempt 3 waits 2*Backoff, ...).
func (p RetryPolicy) Delay(attempt int) float64 {
	if attempt <= 1 {
		return 0
	}
	d := p.Backoff * math.Pow(2, float64(attempt-2))
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// ParseSpec parses the compact fault-spec syntax used by dflrun -faults:
//
//	seed=42;crash=node0@30;ioerr=nfs:0.05;slow=nfs@100-200x0.5;outage=wan@50-80
//	partition=siteA|siteB@120-240;partition=siteA|siteB@400-420:failfast
//	degrade=wan@300-600x0.25;loss=wan:0.01
//
// Clauses are ';'-separated and may repeat (crash, slow, outage, partition,
// degrade). Times are virtual seconds. The partition, degrade and loss
// clauses act on a sim.Topology's locations and links and are rejected by
// the engine when no topology is attached.
func ParseSpec(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			s.Seed = n
		case "crash":
			node, at, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: crash %q is not node@time", val)
			}
			t, err := strconv.ParseFloat(at, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad crash time %q: %v", at, err)
			}
			s.Crashes = append(s.Crashes, NodeCrash{Node: node, Time: t})
		case "ioerr":
			tier, rs, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: ioerr %q is not tier:rate", val)
			}
			rate, err := strconv.ParseFloat(rs, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad ioerr rate %q: %v", rs, err)
			}
			if s.IOErrorRates == nil {
				s.IOErrorRates = make(map[string]float64)
			}
			s.IOErrorRates[tier] = rate
		case "slow":
			tier, win, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: slow %q is not tier@start-endxfactor", val)
			}
			span, fs, ok := strings.Cut(win, "x")
			if !ok {
				return nil, fmt.Errorf("faults: slow %q missing xfactor", val)
			}
			start, end, err := parseWindow(span)
			if err != nil {
				return nil, fmt.Errorf("faults: slow %q: %v", val, err)
			}
			f, err := strconv.ParseFloat(fs, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad slow factor %q: %v", fs, err)
			}
			s.Slowdowns = append(s.Slowdowns, Slowdown{Tier: tier, Start: start, End: end, Factor: f})
		case "outage":
			tier, span, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: outage %q is not tier@start-end", val)
			}
			start, end, err := parseWindow(span)
			if err != nil {
				return nil, fmt.Errorf("faults: outage %q: %v", val, err)
			}
			s.Outages = append(s.Outages, Outage{Tier: tier, Start: start, End: end})
		case "partition":
			pair, win, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: partition %q is not locA|locB@start-end", val)
			}
			a, b, ok := strings.Cut(pair, "|")
			if !ok {
				return nil, fmt.Errorf("faults: partition %q is not locA|locB@start-end", val)
			}
			span, policy, hasPolicy := strings.Cut(win, ":")
			failFast := false
			if hasPolicy {
				if policy != "failfast" {
					return nil, fmt.Errorf("faults: partition %q has unknown policy %q (want failfast)", val, policy)
				}
				failFast = true
			}
			start, end, err := parseWindow(span)
			if err != nil {
				return nil, fmt.Errorf("faults: partition %q: %v", val, err)
			}
			s.Partitions = append(s.Partitions, Partition{A: a, B: b, Start: start, End: end, FailFast: failFast})
		case "degrade":
			link, win, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: degrade %q is not link@start-endxfactor", val)
			}
			span, fs, ok := strings.Cut(win, "x")
			if !ok {
				return nil, fmt.Errorf("faults: degrade %q missing xfactor", val)
			}
			start, end, err := parseWindow(span)
			if err != nil {
				return nil, fmt.Errorf("faults: degrade %q: %v", val, err)
			}
			f, err := strconv.ParseFloat(fs, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad degrade factor %q: %v", fs, err)
			}
			s.LinkDegrades = append(s.LinkDegrades, LinkDegrade{Link: link, Start: start, End: end, Factor: f})
		case "loss":
			link, rs, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: loss %q is not link:rate", val)
			}
			rate, err := strconv.ParseFloat(rs, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad loss rate %q: %v", rs, err)
			}
			if s.LinkLoss == nil {
				s.LinkLoss = make(map[string]float64)
			}
			s.LinkLoss[link] = rate
		default:
			return nil, fmt.Errorf("faults: unknown clause %q", key)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseWindow parses "start-end" into two floats.
func parseWindow(span string) (float64, float64, error) {
	a, b, ok := strings.Cut(span, "-")
	if !ok {
		return 0, 0, fmt.Errorf("window %q is not start-end", span)
	}
	start, err := strconv.ParseFloat(a, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window start %q: %v", a, err)
	}
	end, err := strconv.ParseFloat(b, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window end %q: %v", b, err)
	}
	return start, end, nil
}

// String renders the schedule back in ParseSpec syntax (stable clause
// order), for reports and logs.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	for _, c := range s.Crashes {
		parts = append(parts, fmt.Sprintf("crash=%s@%g", c.Node, c.Time))
	}
	tiers := make([]string, 0, len(s.IOErrorRates))
	for t := range s.IOErrorRates {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	for _, t := range tiers {
		parts = append(parts, fmt.Sprintf("ioerr=%s:%g", t, s.IOErrorRates[t]))
	}
	for _, d := range s.Slowdowns {
		parts = append(parts, fmt.Sprintf("slow=%s@%g-%gx%g", d.Tier, d.Start, d.End, d.Factor))
	}
	for _, o := range s.Outages {
		parts = append(parts, fmt.Sprintf("outage=%s@%g-%g", o.Tier, o.Start, o.End))
	}
	for _, p := range s.Partitions {
		suffix := ""
		if p.FailFast {
			suffix = ":failfast"
		}
		parts = append(parts, fmt.Sprintf("partition=%s|%s@%g-%g%s", p.A, p.B, p.Start, p.End, suffix))
	}
	for _, d := range s.LinkDegrades {
		parts = append(parts, fmt.Sprintf("degrade=%s@%g-%gx%g", d.Link, d.Start, d.End, d.Factor))
	}
	links := make([]string, 0, len(s.LinkLoss))
	for l := range s.LinkLoss {
		links = append(links, l)
	}
	sort.Strings(links)
	for _, l := range links {
		parts = append(parts, fmt.Sprintf("loss=%s:%g", l, s.LinkLoss[l]))
	}
	return strings.Join(parts, ";")
}

// CrashProbability returns 1-exp(-rate*window): the chance a node crashes at
// least once during a residency window, given a per-node crash rate in
// crashes per hour. The advisor uses it to price volatile-tier placement.
func CrashProbability(crashesPerHour, windowSeconds float64) float64 {
	if crashesPerHour <= 0 || windowSeconds <= 0 {
		return 0
	}
	return 1 - math.Exp(-crashesPerHour*windowSeconds/3600)
}

// mix is the splitmix64 finalizer: a full-avalanche 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a over the string bytes.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// unit maps a mixed hash onto [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
