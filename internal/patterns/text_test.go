package patterns

import (
	"fmt"
	"math"
	"testing"

	"datalife/internal/dfl"
)

// The fmt formats the text helpers replaced, verbatim, and the references
// that render with them: the helpers must print the same bytes for every
// operand.
const (
	volumeFormat      = "flow carries %d B (%.0f%% of workflow volume)"
	rateFormat        = "producer rate %.3g B/s vs consumer rate %.3g B/s (%.1fx)"
	unconsumedFormat  = "produced (%d B) but never consumed"
	partialUseFormat  = "consumer %s touches %.0f%% of %d B file"
	spatialFormat     = "spatial locality (%.0f%% accesses < block; %.0f%% distance-0)"
	reuseFormat       = "intra-task reuse %.1fx"
	sharedFormat      = "%d consumers share this data (%.4g B total read)"
	loopFormat        = "; %d are instances of task %q (loop reuse — retain data across iterations)"
	criticalFormat    = "flow blocks %.3gs (%.0f%% of spine latency)"
	parallelismFormat = "consumer has in-degree %d (implies %d concurrent producer flows)"
	splitterFormat    = "scatters into %d outputs"
	compressorFormat  = "combines %d inputs (%.4g B) into %.4g B (%.1f%% ratio)"
	aggregatorFormat  = "combines %d similar inputs (%.4g B, cv=%.2f)"
	feedsFormat       = "aggregate output %s feeds single consumer %s"
	projectFormat     = "in=%.4g out=%.4g"
	opportunityFormat = "%-22s sev=%.4g %v: %s%s"
)

func referenceLocalityDetail(spatial, reuse bool, smallPct, zeroPct, reuseFactor float64) string {
	kinds := ""
	if spatial {
		kinds = fmt.Sprintf(spatialFormat, smallPct, zeroPct)
	}
	if reuse {
		if kinds != "" {
			kinds += "; "
		}
		kinds += fmt.Sprintf(reuseFormat, reuseFactor)
	}
	return kinds
}

func referenceSharedDetail(consumers int, vol float64, instances int, template string) string {
	detail := fmt.Sprintf(sharedFormat, consumers, vol)
	if template != "" {
		detail += fmt.Sprintf(loopFormat, instances, template)
	}
	return detail
}

func referenceOpportunityString(o Opportunity) string {
	names := make([]string, len(o.Vertices))
	for i, v := range o.Vertices {
		names[i] = v.Name
	}
	v := ""
	if o.MustValidate {
		v = " [Must validate]"
	}
	return fmt.Sprintf(opportunityFormat, o.Kind, o.Severity, names, o.Detail, v)
}

func referenceEntityString(e Entity) string {
	switch e.Kind {
	case DataEntity:
		return fmt.Sprintf("%s (%.4g)", e.Data.Name, e.Value)
	case TaskEntity:
		return fmt.Sprintf("%s (%.4g)", e.Producer.Name, e.Value)
	case ProducerRelation:
		return fmt.Sprintf("%s→%s (%.4g)", e.Producer.Name, e.Data.Name, e.Value)
	case ConsumerRelation:
		return fmt.Sprintf("%s→%s (%.4g)", e.Data.Name, e.Consumer.Name, e.Value)
	default:
		return fmt.Sprintf("%s→%s→%s (%.4g)", e.Producer.Name, e.Data.Name, e.Consumer.Name, e.Value)
	}
}

// checkText compares every helper, Opportunity.String and Entity.String with
// fmt.Sprintf of the format it replaced, on one set of operands.
func checkText(t *testing.T, x, y, z float64, i, j int64, u uint64, s, r string, kind uint8, flags uint8) {
	t.Helper()
	same := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: got %q, fmt.Sprintf gives %q", what, got, want)
		}
	}
	n, m := int(i), int(j)
	same("pad", string(appendPadded(nil, s, 22)), fmt.Sprintf("%-22s", s))
	same("volume", volumeDetail(u, x), fmt.Sprintf(volumeFormat, u, x))
	same("rate", rateDetail(x, y, z), fmt.Sprintf(rateFormat, x, y, z))
	same("unconsumed", unconsumedDetail(i), fmt.Sprintf(unconsumedFormat, i))
	same("partial use", partialUseDetail(s, x, j), fmt.Sprintf(partialUseFormat, s, x, j))
	for _, sp := range []bool{false, true} {
		for _, re := range []bool{false, true} {
			same("locality", localityDetail(sp, re, x, y, z), referenceLocalityDetail(sp, re, x, y, z))
		}
	}
	same("shared", sharedDetail(n, x, m, s), referenceSharedDetail(n, x, m, s))
	same("shared, no template", sharedDetail(n, x, m, ""), referenceSharedDetail(n, x, m, ""))
	same("critical flow", criticalFlowDetail(x, y), fmt.Sprintf(criticalFormat, x, y))
	same("parallelism", parallelismDetail(n), fmt.Sprintf(parallelismFormat, n, n))
	same("splitter", splitterDetail(m), fmt.Sprintf(splitterFormat, m))
	same("compressor", compressorDetail(n, x, y, z), fmt.Sprintf(compressorFormat, n, x, y, z))
	same("aggregator", aggregatorDetail(m, x, y), fmt.Sprintf(aggregatorFormat, m, x, y))
	same("feeds", feedsDetail(s, r), fmt.Sprintf(feedsFormat, s, r))
	same("project", projectDetail(x, y), fmt.Sprintf(projectFormat, x, y))

	ids := []dfl.ID{dfl.DataID(s), dfl.TaskID(r), dfl.TaskID(s + r)}
	o := Opportunity{Kind: Kind(kind), Vertices: ids[:flags%4], Severity: z,
		Detail: r, MustValidate: flags&4 != 0}
	same("Opportunity.String", o.String(), referenceOpportunityString(o))
	b := Benefit{Opportunity: o}
	same("Benefit key", string(b.appendText([]byte(s))), s+referenceOpportunityString(o))
	e := Entity{Kind: EntityKind(kind), Producer: dfl.TaskID(s), Data: dfl.DataID(r),
		Consumer: dfl.TaskID(r + s), Value: x}
	same("Entity.String", e.String(), referenceEntityString(e))
}

// Operands for the text oracle: floats at every class boundary (NaN, ±Inf,
// ±0, subnormals, extremes, rounding ties), integers at their limits, and
// names with multi-byte and invalid UTF-8, quotes, backslashes, control
// bytes and more runes than the kind column is wide.
var (
	textFloats = []uint64{
		0x7FF8000000000001, 0xFFF8000000000000, // NaNs
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0, 0x8000000000000000, // ±0
		1, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, // subnormals
		0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, // normal extremes
		math.Float64bits(0.5), math.Float64bits(2.5), math.Float64bits(99.95),
		math.Float64bits(12345.678), math.Float64bits(-1e21), math.Float64bits(1e-7),
	}
	textInts  = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	textNames = []string{
		"", "chr1n-1-1001.tar.gz", "ünïcødé 日本", "\xff\xfe\xc3", `q"uo\te`,
		"ctl\x00\x01\n\t\x7f", "a-name-longer-than-twenty-two-runes-ä", "50%",
	}
)

func TestTextMatchesSprintf(t *testing.T) {
	for k, bits := range textFloats {
		x := math.Float64frombits(bits)
		y := math.Float64frombits(textFloats[(k+5)%len(textFloats)])
		z := math.Float64frombits(textFloats[(k+11)%len(textFloats)])
		for l, i := range textInts {
			j := textInts[(l+3)%len(textInts)]
			s, r := textNames[(k+l)%len(textNames)], textNames[(k+2*l+1)%len(textNames)]
			checkText(t, x, y, z, i, j, uint64(j), s, r, uint8(k+l)%13, uint8(k*l))
		}
	}
	checkText(t, 1, 2, 3, 4, 5, math.MaxUint64, "a", "b", 255, 7)
}

func FuzzTextMatchesSprintf(f *testing.F) {
	for k, bits := range textFloats {
		f.Add(bits, textFloats[(k+1)%len(textFloats)], textFloats[(k+7)%len(textFloats)],
			textInts[k%len(textInts)], textInts[(k+1)%len(textInts)], uint64(k)<<60,
			textNames[k%len(textNames)], textNames[(k+3)%len(textNames)], uint8(k), uint8(k))
	}
	f.Fuzz(func(t *testing.T, xb, yb, zb uint64, i, j int64, u uint64, s, r string, kind, flags uint8) {
		checkText(t, math.Float64frombits(xb), math.Float64frombits(yb), math.Float64frombits(zb),
			i, j, u, s, r, kind, flags)
	})
}
