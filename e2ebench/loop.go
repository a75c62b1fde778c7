package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smol/internal/engine"
)

// opRecord is one op the closed loop ran: what it was, when it ran, how it
// ended, and the answer the checker verifies after the measured window.
type opRecord struct {
	id   int
	kind string
	// dur is the op's latency.
	dur time.Duration
	// err is the error the system under test returned; fail is the answer
	// check's verdict ("" = correct), set after the window.
	err  error
	fail string
	// stats is the engine's accounting for the op (summed over its
	// submissions).
	stats engine.Stats
	// out is the workload-specific answer and counters.
	out any
	// kernel is the GEMM kernel tier the op's plan reported; plan
	// summarizes the rest of the plan's choices.
	kernel, plan string
	// span is the op's trace span id (0 when untraced).
	span int
}

// failed reports whether the op errored or failed its answer check.
func (r *opRecord) failed() bool { return r.err != nil || r.fail != "" }

// phase is one measured window of closed-loop load.
type phase struct {
	recs []*opRecord
	wall time.Duration
}

// opFunc runs op id of the workload's seeded op sequence.
type opFunc func(ctx context.Context, id int) *opRecord

// closedLoop runs ops on `clients` goroutines, each sending its next op
// only after the previous one returned. Op ids are first, first+1, ...; no
// new op starts once d has elapsed (d > 0) or n ids have been taken
// (n > 0), and ops already running finish and count. With tr set every op
// gets a span carrying its counts.
func closedLoop(ctx context.Context, clients, first, n int, d time.Duration, run opFunc, tr *tracer, counts func(*opRecord) map[string]float64) phase {
	var (
		mu   sync.Mutex
		recs []*opRecord
		wg   sync.WaitGroup
		next atomic.Int64
	)
	t0 := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (d <= 0 || time.Since(t0) < d) {
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					return
				}
				id := first + i
				start := time.Now()
				rec := run(ctx, id)
				end := time.Now()
				rec.id = id
				rec.dur = end.Sub(start)
				if tr != nil {
					rec.span = tr.record("op."+rec.kind, id, 0, start, end, counts(rec))
				}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	return phase{recs: recs, wall: time.Since(t0)}
}

// clock is the run's time origin; span offsets are relative to it.
var clock = runClock{t0: time.Now()}

type runClock struct{ t0 time.Time }

func (c runClock) since(t time.Time) time.Duration { return t.Sub(c.t0) }

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest value with at least q of the samples at or below it). xs need
// not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMS returns the latencies of the records that satisfy keep, in
// milliseconds.
func latenciesMS(recs []*opRecord, keep func(*opRecord) bool) []float64 {
	var out []float64
	for _, r := range recs {
		if keep == nil || keep(r) {
			out = append(out, ms(r.dur))
		}
	}
	return out
}
