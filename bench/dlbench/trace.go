package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call into a layer. Spans of one request share Req; a
// root span has Parent 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so untraced
// phases run the same code with no bookkeeping. One goroutine owns a
// tracer; concurrent clients each get their own with a distinct idBase.
type tracer struct {
	idBase int64
	spans  []span
}

func newTracer(idBase int64) *tracer { return &tracer{idBase: idBase} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	id := t.idBase + int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: nanotime()})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-t.idBase-1].End = nanotime()
}

// allSpans concatenates tracers in index order.
func allSpans(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		if t != nil {
			out = append(out, t.spans...)
		}
	}
	return out
}

// selfTimes returns, per span name, each span's self time in milliseconds:
// its duration minus the part of its interval that its children cover.
// Overlapping children are counted once.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		var ivs [][2]int64
		for _, ci := range children[s.ID] {
			c := spans[ci]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered, reach int64
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
			}
			reach = max(reach, iv[1])
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// durations returns, per span name, each span's whole duration in
// milliseconds.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// writeSpans writes each workload's spans as a JSON object of arrays.
func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
