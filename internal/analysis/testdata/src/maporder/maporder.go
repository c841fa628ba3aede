// Package maporder seeds violations for the maporder analyzer: values whose
// order depends on map iteration reaching ordered sinks, plus the clean
// canonicalization patterns and //dflvet:allow suppressions that must not be
// reported.
package maporder

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"datalife/internal/analysis/testdata/src/maporder/dep"
)

func direct(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "order-tainted value reaches"
	}
}

func collected(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	fmt.Println(keys) // want "order-tainted value reaches"
}

func canonicalized(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(keys) // clean: sorted before the sink
}

func indexedSlots(m map[string]int, pos map[string]int) {
	out := make([]int, len(m))
	for k, v := range m {
		out[pos[k]] = v // clean: slot derived from the element itself
	}
	fmt.Println(out)
}

func accumulated(m map[string]int) {
	total := 0
	for _, v := range m {
		total += v // clean: commutative accumulation
	}
	fmt.Println(total)
}

func crossProducer(m map[string]int) {
	fmt.Println(dep.Keys(m)) // want "order-tainted result of"
}

func crossSink(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	dep.Emit(keys) // want "order-tainted value reaches"
}

func mergeDisjointMaps(parts []map[string]int) {
	// The simulator's result-merge idiom: keyed inserts and commutative
	// += from ranged maps are order-independent; only the sorted render
	// touches the sink.
	merged := make(map[string]int)
	for _, p := range parts {
		for k, v := range p {
			merged[k] += v // clean: keyed commutative accumulation
		}
	}
	var keys []string
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, merged[k]) // clean: canonicalized before the sink
	}
}

func mergeSpans(parts []map[string]int) int {
	// Min/max folds over ranged maps are commutative too (stage-span
	// merging): the extremum cannot depend on iteration order.
	best := 0
	for _, p := range parts {
		for _, v := range p {
			if v > best {
				best = v
			}
		}
	}
	return best
}

func deltaReplay(pend map[int32]string) {
	// The incremental-index edit-replay idiom: pending edits keyed by index
	// are drained through a sorted key slice, so the replayed sequence is
	// deterministic by construction, not by a commutativity argument.
	keys := make([]int32, 0, len(pend))
	for i := range pend {
		keys = append(keys, i)
	}
	slices.Sort(keys)
	out := make([]string, 0, len(keys))
	for _, i := range keys {
		out = append(out, pend[i])
	}
	fmt.Println(out) // clean: replay order fixed by the in-place sort
}

func deltaReplayUnsorted(pend map[int32]string) {
	var out []string
	for _, v := range pend {
		out = append(out, v)
	}
	fmt.Println(out) // want "order-tainted value reaches"
}

func appendQuoted(m map[string]int) {
	// A detail built with strconv appends rather than fmt.Sprintf keeps the
	// map order of the names it quotes.
	var b []byte
	for k := range m {
		b = strconv.AppendQuote(b, k)
	}
	fmt.Println(string(b)) // want "order-tainted value reaches"
}

func pickedThenQuoted(m map[string]int) {
	// The first key found, the way a detector once picked a task template
	// by map order, rendered without fmt.
	first := ""
	for k := range m {
		first = k
		break
	}
	fmt.Println(strconv.Quote(first) + ": " + strconv.Itoa(m[first])) // want "order-tainted value reaches"
}

func appendQuotedSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		b = strconv.AppendQuote(b, k)
		b = strconv.AppendInt(b, int64(m[k]), 10)
	}
	fmt.Println(string(b)) // clean: rendered from the sorted slice
}

func suppressed(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	//dflvet:allow maporder fixture exercising the structured allow directive
	fmt.Println(keys)
}

func badDirective(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	//dflvet:allow nosuchanalyzer bogus target // want "unknown analyzer"
	fmt.Println(keys)
}
