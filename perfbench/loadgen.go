package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one batch as the load generator saw it. Times are clock()
// readings. due is when the caller was ready to send it: when its previous
// batch returned.
type sample struct {
	batch           int64
	due, start, end int64
	failed          bool
}

func (s sample) latencyMs() float64 { return float64(s.end-s.start) / 1e6 }
func (s sample) lateMs() float64    { return float64(s.start-s.due) / 1e6 }

// batchFn runs batch number batch (counted from 1) on the given worker (a
// closed loop's caller) and reports whether it failed.
type batchFn func(ctx context.Context, worker int, batch int64) (failed bool)

// epoch anchors clock(), the one time base of samples, spans and host
// CPU marks.
var epoch = time.Now()

// clock returns the nanoseconds since epoch on the monotonic clock.
func clock() int64 { return int64(time.Since(epoch)) }

// closedLoop runs callers that each send their next batch as soon as the
// previous one returns, until d has passed. It returns the samples and the
// time from its start to the last batch's return.
func closedLoop(ctx context.Context, callers int, d time.Duration, fn batchFn) ([]sample, time.Duration) {
	t0 := clock()
	deadline := t0 + int64(d)
	var next atomic.Int64
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		per[c] = make([]sample, 0, 1024)
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := clock()
			for due < deadline && ctx.Err() == nil {
				s := sample{batch: next.Add(1), due: due, start: clock()}
				s.failed = fn(ctx, c, s.batch)
				s.end = clock()
				per[c] = append(per[c], s)
				due = s.end
			}
		}()
	}
	wg.Wait()
	out := flatten(per)
	last := t0
	for _, s := range out {
		if s.end > last {
			last = s.end
		}
	}
	return out, time.Duration(last - t0)
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
