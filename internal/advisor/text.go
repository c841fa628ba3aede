package advisor

import "strconv"

// Per-file and per-thread text, built with strconv appends rather than fmt,
// which boxes each operand and parses its format on every call: a plan has a
// Why per data file and a report line per thread. Each helper names the fmt
// format it reproduces byte for byte; the tests keep those formats and
// compare the helpers with fmt.Sprintf on fuzzed operands.

// stagedWhy is "read-only input with %d consumers across %d node(s):
// duplicated, congested flow".
func stagedWhy(consumers, nodes int) string {
	var buf [96]byte
	b := append(buf[:0], "read-only input with "...)
	b = strconv.AppendInt(b, int64(consumers), 10)
	b = append(b, " consumers across "...)
	b = strconv.AppendInt(b, int64(nodes), 10)
	b = append(b, " node(s): duplicated, congested flow"...)
	return string(b)
}

// threadWhy is "all producer-consumer flow stays inside thread %d".
func threadWhy(thread int) string {
	var buf [64]byte
	b := append(buf[:0], "all producer-consumer flow stays inside thread "...)
	b = strconv.AppendInt(b, int64(thread), 10)
	return string(b)
}

// sharedWhy is "crosses %d node(s); keep on shared storage".
func sharedWhy(nodes int) string {
	var buf [64]byte
	b := append(buf[:0], "crosses "...)
	b = strconv.AppendInt(b, int64(nodes), 10)
	b = append(b, " node(s); keep on shared storage"...)
	return string(b)
}

// appendThreadLine appends "  thread %d -> node %d: %d tasks, work %.3gs,
// locality %.0f%%\n".
func appendThreadLine(b []byte, id, node, tasks int, work, localityPct float64) []byte {
	b = append(b, "  thread "...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " -> node "...)
	b = strconv.AppendInt(b, int64(node), 10)
	b = append(b, ": "...)
	b = strconv.AppendInt(b, int64(tasks), 10)
	b = append(b, " tasks, work "...)
	b = strconv.AppendFloat(b, work, 'g', 3, 64)
	b = append(b, "s, locality "...)
	b = strconv.AppendFloat(b, localityPct, 'f', 0, 64)
	return append(b, "%\n"...)
}
