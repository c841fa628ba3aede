package patterns

import (
	"strconv"
	"unicode/utf8"
)

// Per-element text: every opportunity detail, ranking key and projection
// detail is built by a helper here with strconv appends rather than fmt,
// which boxes each operand and parses its format on every call. Each helper
// names the fmt format it reproduces byte for byte; the tests keep those
// formats and compare the helpers with fmt.Sprintf on fuzzed operands.
//
// A %.Ng or %.Nf float verb without flags or width prints what
// strconv.AppendFloat does with the same format and precision, +Inf, -0 and
// NaN included; %d prints what strconv.AppendInt and AppendUint do, and %q
// what strconv.AppendQuote does.

// appendPadded appends s left-justified in a field of width runes, as %-Ns.
func appendPadded(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

func appendG(b []byte, f float64, prec int) []byte {
	return strconv.AppendFloat(b, f, 'g', prec, 64)
}

func appendF(b []byte, f float64, prec int) []byte {
	return strconv.AppendFloat(b, f, 'f', prec, 64)
}

func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// volumeDetail is "flow carries %d B (%.0f%% of workflow volume)".
func volumeDetail(vol uint64, pct float64) string {
	var buf [64]byte
	b := append(buf[:0], "flow carries "...)
	b = strconv.AppendUint(b, vol, 10)
	b = append(b, " B ("...)
	b = appendF(b, pct, 0)
	b = append(b, "% of workflow volume)"...)
	return string(b)
}

// rateDetail is "producer rate %.3g B/s vs consumer rate %.3g B/s (%.1fx)".
func rateDetail(in, out, ratio float64) string {
	var buf [80]byte
	b := append(buf[:0], "producer rate "...)
	b = appendG(b, in, 3)
	b = append(b, " B/s vs consumer rate "...)
	b = appendG(b, out, 3)
	b = append(b, " B/s ("...)
	b = appendF(b, ratio, 1)
	b = append(b, "x)"...)
	return string(b)
}

// unconsumedDetail is "produced (%d B) but never consumed".
func unconsumedDetail(size int64) string {
	var buf [64]byte
	b := append(buf[:0], "produced ("...)
	b = strconv.AppendInt(b, size, 10)
	b = append(b, " B) but never consumed"...)
	return string(b)
}

// partialUseDetail is "consumer %s touches %.0f%% of %d B file".
func partialUseDetail(consumer string, pct float64, size int64) string {
	var buf [96]byte
	b := append(buf[:0], "consumer "...)
	b = append(b, consumer...)
	b = append(b, " touches "...)
	b = appendF(b, pct, 0)
	b = append(b, "% of "...)
	b = strconv.AppendInt(b, size, 10)
	b = append(b, " B file"...)
	return string(b)
}

// localityDetail joins with "; " the spatial part, "spatial locality (%.0f%%
// accesses < block; %.0f%% distance-0)", and the reuse part, "intra-task
// reuse %.1fx", each when its flag is set.
func localityDetail(spatial, reuse bool, smallPct, zeroPct, reuseFactor float64) string {
	var buf [128]byte
	b := buf[:0]
	if spatial {
		b = append(b, "spatial locality ("...)
		b = appendF(b, smallPct, 0)
		b = append(b, "% accesses < block; "...)
		b = appendF(b, zeroPct, 0)
		b = append(b, "% distance-0)"...)
	}
	if reuse {
		if len(b) > 0 {
			b = append(b, "; "...)
		}
		b = append(b, "intra-task reuse "...)
		b = appendF(b, reuseFactor, 1)
		b = append(b, 'x')
	}
	return string(b)
}

// sharedDetail is "%d consumers share this data (%.4g B total read)",
// followed, when template is not empty, by "; %d are instances of task %q
// (loop reuse — retain data across iterations)".
func sharedDetail(consumers int, vol float64, instances int, template string) string {
	var buf [160]byte
	b := appendInt(buf[:0], consumers)
	b = append(b, " consumers share this data ("...)
	b = appendG(b, vol, 4)
	b = append(b, " B total read)"...)
	if template != "" {
		b = append(b, "; "...)
		b = appendInt(b, instances)
		b = append(b, " are instances of task "...)
		b = strconv.AppendQuote(b, template)
		b = append(b, " (loop reuse — retain data across iterations)"...)
	}
	return string(b)
}

// criticalFlowDetail is "flow blocks %.3gs (%.0f%% of spine latency)".
func criticalFlowDetail(latency, pct float64) string {
	var buf [64]byte
	b := append(buf[:0], "flow blocks "...)
	b = appendG(b, latency, 3)
	b = append(b, "s ("...)
	b = appendF(b, pct, 0)
	b = append(b, "% of spine latency)"...)
	return string(b)
}

// parallelismDetail is "consumer has in-degree %d (implies %d concurrent
// producer flows)" with in for both operands.
func parallelismDetail(in int) string {
	var buf [80]byte
	b := append(buf[:0], "consumer has in-degree "...)
	b = appendInt(b, in)
	b = append(b, " (implies "...)
	b = appendInt(b, in)
	b = append(b, " concurrent producer flows)"...)
	return string(b)
}

// splitterDetail is "scatters into %d outputs".
func splitterDetail(outputs int) string {
	var buf [48]byte
	b := append(buf[:0], "scatters into "...)
	b = appendInt(b, outputs)
	b = append(b, " outputs"...)
	return string(b)
}

// compressorDetail is "combines %d inputs (%.4g B) into %.4g B (%.1f%%
// ratio)".
func compressorDetail(inputs int, inVol, outVol, pct float64) string {
	var buf [80]byte
	b := append(buf[:0], "combines "...)
	b = appendInt(b, inputs)
	b = append(b, " inputs ("...)
	b = appendG(b, inVol, 4)
	b = append(b, " B) into "...)
	b = appendG(b, outVol, 4)
	b = append(b, " B ("...)
	b = appendF(b, pct, 1)
	b = append(b, "% ratio)"...)
	return string(b)
}

// aggregatorDetail is "combines %d similar inputs (%.4g B, cv=%.2f)".
func aggregatorDetail(inputs int, inVol, cv float64) string {
	var buf [64]byte
	b := append(buf[:0], "combines "...)
	b = appendInt(b, inputs)
	b = append(b, " similar inputs ("...)
	b = appendG(b, inVol, 4)
	b = append(b, " B, cv="...)
	b = appendF(b, cv, 2)
	b = append(b, ')')
	return string(b)
}

// feedsDetail is "aggregate output %s feeds single consumer %s".
func feedsDetail(output, consumer string) string {
	var buf [96]byte
	b := append(buf[:0], "aggregate output "...)
	b = append(b, output...)
	b = append(b, " feeds single consumer "...)
	b = append(b, consumer...)
	return string(b)
}

// projectDetail is "in=%.4g out=%.4g".
func projectDetail(in, out float64) string {
	var buf [48]byte
	b := append(buf[:0], "in="...)
	b = appendG(b, in, 4)
	b = append(b, " out="...)
	b = appendG(b, out, 4)
	return string(b)
}

// appendText appends the opportunity's String form, "%-22s sev=%.4g %v: %s%s"
// of the kind, the severity, the vertex names as a []string, the detail and
// the validation mark.
func (o *Opportunity) appendText(b []byte) []byte {
	b = appendPadded(b, o.Kind.String(), 22)
	b = append(b, " sev="...)
	b = appendG(b, o.Severity, 4)
	b = append(b, " ["...)
	for i, v := range o.Vertices {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, v.Name...)
	}
	b = append(b, "]: "...)
	b = append(b, o.Detail...)
	if o.MustValidate {
		b = append(b, " [Must validate]"...)
	}
	return b
}

// appendText appends the entity's String form: "%s (%.4g)" of the data or
// task name and the value for vertex entities, and the relation's names
// joined by "→" in place of the single name for relations.
func (e *Entity) appendText(b []byte) []byte {
	switch e.Kind {
	case DataEntity:
		b = append(b, e.Data.Name...)
	case TaskEntity:
		b = append(b, e.Producer.Name...)
	case ProducerRelation:
		b = append(b, e.Producer.Name...)
		b = append(b, "→"...)
		b = append(b, e.Data.Name...)
	case ConsumerRelation:
		b = append(b, e.Data.Name...)
		b = append(b, "→"...)
		b = append(b, e.Consumer.Name...)
	default:
		b = append(b, e.Producer.Name...)
		b = append(b, "→"...)
		b = append(b, e.Data.Name...)
		b = append(b, "→"...)
		b = append(b, e.Consumer.Name...)
	}
	b = append(b, " ("...)
	b = appendG(b, e.Value, 4)
	return append(b, ')')
}
