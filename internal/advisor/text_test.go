package advisor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"datalife/internal/dfl/dfltest"
	"datalife/internal/patterns"
)

// The fmt formats the text helpers replaced, verbatim: the helpers must print
// the same bytes for every operand.
const (
	stagedFormat     = "read-only input with %d consumers across %d node(s): duplicated, congested flow"
	threadWhyFormat  = "all producer-consumer flow stays inside thread %d"
	sharedFormat     = "crosses %d node(s); keep on shared storage"
	threadLineFormat = "  thread %d -> node %d: %d tasks, work %.3gs, locality %.0f%%\n"
)

// referenceReport is Report as it rendered every line with fmt.
func referenceReport(p *Plan, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "advisor plan: %d threads\n", len(p.Threads))
	for _, th := range p.Threads {
		loc := 1.0
		if tot := th.InternalFlow + th.ExternalFlow; tot > 0 {
			loc = float64(th.InternalFlow) / float64(tot)
		}
		fmt.Fprintf(&b, threadLineFormat, th.ID, th.Node, len(th.Tasks), th.Work, 100*loc)
	}
	b.WriteString("file placements (by volume):\n")
	n := limit
	if n <= 0 || n > len(p.Placements) {
		n = len(p.Placements)
	}
	for _, fp := range p.Placements[:n] {
		fmt.Fprintf(&b, "  %-40s %-12s %s\n", fp.File.Name, fp.Class, fp.Why)
		if fp.RerunRisk > 0 {
			fmt.Fprintf(&b, "  %-40s %-12s volatile: %.2f%% crash exposure over lifetime, expected re-run cost %.3gs\n",
				"", "", 100*fp.RerunRisk, fp.RerunCost)
		}
	}
	if len(p.Opportunities) > 0 {
		b.WriteString(patterns.Report("supporting opportunities:", p.Opportunities, 5))
	}
	return b.String()
}

// checkText compares every helper with fmt.Sprintf of the format it
// replaced, on one set of operands.
func checkText(t *testing.T, i, j, k int64, x, y float64) {
	t.Helper()
	same := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: got %q, fmt.Sprintf gives %q", what, got, want)
		}
	}
	n, m, l := int(i), int(j), int(k)
	same("staged", stagedWhy(n, m), fmt.Sprintf(stagedFormat, n, m))
	same("thread", threadWhy(n), fmt.Sprintf(threadWhyFormat, n))
	same("shared", sharedWhy(m), fmt.Sprintf(sharedFormat, m))
	same("thread line", string(appendThreadLine([]byte("prefix"), n, m, l, x, y)),
		"prefix"+fmt.Sprintf(threadLineFormat, n, m, l, x, y))
}

// Operands for the text oracle: integers at their limits and floats at
// every class boundary (NaN, ±Inf, ±0, subnormals, extremes, rounding ties).
var (
	textInts   = []int64{0, 1, -1, 9, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	textFloats = []uint64{
		0x7FF8000000000001, 0x7FF0000000000000, 0xFFF0000000000000, 0, 0x8000000000000000,
		1, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
		math.Float64bits(0.5), math.Float64bits(99.5), math.Float64bits(123456.5), math.Float64bits(1e-9),
	}
)

func TestTextMatchesSprintf(t *testing.T) {
	for a, i := range textInts {
		for b, bits := range textFloats {
			checkText(t, i, textInts[(a+b)%len(textInts)], textInts[(a+3)%len(textInts)],
				math.Float64frombits(bits), math.Float64frombits(textFloats[(a+b+1)%len(textFloats)]))
		}
	}
}

func FuzzTextMatchesSprintf(f *testing.F) {
	for a, i := range textInts {
		f.Add(i, textInts[(a+1)%len(textInts)], textInts[(a+5)%len(textInts)],
			textFloats[a%len(textFloats)], textFloats[(a+4)%len(textFloats)])
	}
	f.Fuzz(func(t *testing.T, i, j, k int64, xb, yb uint64) {
		checkText(t, i, j, k, math.Float64frombits(xb), math.Float64frombits(yb))
	})
}

// TestReportMatchesReference renders the corpus plans both ways, at a limit
// and without one, with and without crash pricing.
func TestReportMatchesReference(t *testing.T) {
	for _, c := range dfltest.Corpus(t) {
		for _, cfg := range []Config{{Nodes: 3}, {Nodes: 10, CrashesPerHour: 2}} {
			plan, err := Advise(c.G, cfg)
			if err != nil {
				continue
			}
			for _, limit := range []int{0, 20} {
				if got, want := plan.Report(limit), referenceReport(plan, limit); got != want {
					t.Fatalf("%s %+v limit %d: Report differs from the fmt reference", c.Name, cfg, limit)
				}
			}
		}
	}
}
