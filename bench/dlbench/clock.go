package main

import (
	"sync"
	"time"
)

var clock struct {
	once  sync.Once
	start time.Time
}

// nanotime returns monotonic nanoseconds since the first call. It is the
// benchmark's only wall-clock read: every latency, deadline and span
// timestamp is a difference of two nanotime values.
//
//dflvet:allow walltime the benchmark measures elapsed real time by definition
func nanotime() int64 {
	clock.once.Do(func() { clock.start = time.Now() })
	return int64(time.Since(clock.start))
}
