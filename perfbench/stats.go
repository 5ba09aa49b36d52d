package main

import (
	"math"
	"sort"
	"time"
)

// miss marks a request that was refused, failed or timed out. It sorts
// above every measured latency, so a miss always counts as missing the
// latency limit.
const miss = time.Duration(math.MaxInt64)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted. An empty sample yields 0.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n values. The
// product is rounded to nine decimals first so that, say, 99.9% of 10000
// is rank 9990 and not 9991 through floating-point noise.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(math.Round(p/100*float64(n)*1e9) / 1e9))
}

// supports reports whether a sample of n values has at least ten values
// beyond its p-th percentile, the rule a reported tail percentile must
// meet.
func supports(n int, p float64) bool {
	beyond := n - nearestRank(p, n)
	return beyond >= 10
}

// tailPercentile returns the highest of the standard tail percentiles
// (99.9, 99, 90, 50) that a sample of n values supports, or 0 when the
// sample is too small for any of them.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// windowBeyond is how many samples each window holds beyond the
// percentile it reports: enough that the window's own percentile is not
// one sample's noise. Windows never exceed windowMax samples, the least
// that gives a p99 ten samples beyond it.
const (
	windowBeyond = 50
	windowMax    = 1000
)

// windowSize is the window windowedPercentile cuts for the p-th
// percentile: 100 samples for a p50, 500 for a p90, 1000 for a p99.
func windowSize(p float64) int {
	n := int(math.Round(windowBeyond / (1 - p/100)))
	if n > windowMax {
		n = windowMax
	}
	return n
}

// windowedPercentile cuts xs (in time order) into as many consecutive
// equal windows of at least windowSize(p) values as it holds, takes the
// p-th percentile of each, and returns their median. A garbage-collection
// cycle or a burst of CPU steal from another tenant then moves the few
// windows it overlaps, not the reported value. Fewer than two windows'
// worth falls back to the plain percentile.
func windowedPercentile(xs []time.Duration, p float64) time.Duration {
	per := windowPercentiles(xs, p)
	if len(per) < 2 {
		return percentile(sortedCopy(xs), p)
	}
	fs := make([]float64, len(per))
	for i, d := range per {
		fs[i] = float64(d)
	}
	return time.Duration(medianFloat(fs))
}

// windowPercentiles returns the p-th percentile of each window
// windowedPercentile cuts.
func windowPercentiles(xs []time.Duration, p float64) []time.Duration {
	k := len(xs) / windowSize(p)
	per := make([]time.Duration, k)
	for w := range per {
		lo, hi := w*len(xs)/k, (w+1)*len(xs)/k
		per[w] = percentile(sortedCopy(xs[lo:hi]), p)
	}
	return per
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ms converts a duration to float milliseconds; a miss reads as cap.
func ms(d, cap time.Duration) float64 {
	if d == miss {
		d = cap
	}
	return float64(d) / float64(time.Millisecond)
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs (mean of the middle pair for an
// even count); an empty slice yields 0.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// send is one open-loop request: when it was due, when the generator
// actually issued it, and when it completed (all relative to the phase
// start). ok is false for a refused, failed or timed-out request.
type send struct {
	due, sent, done time.Duration
	ok              bool
}

// latency is the request's time from when it was due to its reply, the
// open-loop rule: a generator stall or a queue ahead of it is charged to
// the request. A failed request is a miss.
func (s send) latency() time.Duration {
	if !s.ok {
		return miss
	}
	return s.done - s.due
}

// lateness is how long after its due time the generator issued it.
func (s send) lateness() time.Duration { return s.sent - s.due }

// rung summarizes one fixed-rate phase of the open loop.
type rung struct {
	rate              float64 // offered requests per second
	n, failed         int
	p50, p90, p99     time.Duration // from due time; miss for refusals
	goodput           float64       // replies per second, first due time to last reply
	lateP99, lateMax  time.Duration // generator lateness
	earlyP50, lateP50 time.Duration // p50 of the first and last quarter
	duration          time.Duration
	tail              float64         // highest supported tail percentile
	p99Windows        []time.Duration // per-window p99s behind p99
}

// summarize folds one phase's sends into a rung.
func summarize(rate float64, sends []send, duration time.Duration) rung {
	r := rung{rate: rate, n: len(sends), duration: duration, tail: tailPercentile(len(sends))}
	lat := make([]time.Duration, len(sends))
	late := make([]time.Duration, len(sends))
	var last time.Duration
	for i, s := range sends {
		lat[i] = s.latency()
		late[i] = s.lateness()
		if !s.ok {
			r.failed++
		}
		if s.done > last {
			last = s.done
		}
	}
	if last > 0 {
		r.goodput = float64(len(sends)-r.failed) / last.Seconds()
	}
	q := len(sends) / 4
	if q > 0 {
		r.earlyP50 = percentile(sortedCopy(lat[:q]), 50)
		r.lateP50 = percentile(sortedCopy(lat[len(lat)-q:]), 50)
	}
	r.p50 = windowedPercentile(lat, 50)
	r.p90 = windowedPercentile(lat, 90)
	r.p99 = windowedPercentile(lat, 99)
	r.p99Windows = windowPercentiles(lat, 99)
	late = sortedCopy(late)
	r.lateP99 = percentile(late, 99)
	if len(late) > 0 {
		r.lateMax = late[len(late)-1]
	}
	return r
}

// ladderRule holds the limits a rung must meet to count as sustained.
type ladderRule struct {
	p99Limit  time.Duration // latency limit on the p99 (from due time)
	maxFail   float64       // highest tolerated failure share
	lateLimit time.Duration // generator lateness p99 beyond which a rung is invalid
}

// verdict explains why a rung does or does not count as sustained.
func (lr ladderRule) verdict(r rung) string {
	switch {
	case r.n == 0:
		return "empty"
	case r.lateP99 > lr.lateLimit:
		return "invalid: generator late"
	case float64(r.failed) > lr.maxFail*float64(r.n):
		return "failures"
	case r.p99 > lr.p99Limit:
		return "p99 over limit"
	case r.lateP50 > 2*r.earlyP50+time.Millisecond:
		return "growing backlog"
	}
	return "ok"
}

// maxRate is the highest offered rate among rungs that meet the rule and
// every lower rung meets it too; 0 when the lowest rung already fails.
func (lr ladderRule) maxRate(rungs []rung) float64 {
	sorted := append([]rung(nil), rungs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].rate < sorted[j].rate })
	best := 0.0
	for _, r := range sorted {
		if lr.verdict(r) != "ok" {
			break
		}
		best = r.rate
	}
	return best
}

// rateWindows is how many windows of consecutive calls a closed loop's
// throughput is cut into; samples_per_s is the median window's rate.
const rateWindows = 20

// adjustedRate cuts a closed loop's calls (in call order, took[i] the
// call's time and cals[i] the kernel run right after it) into rateWindows
// windows and returns the median over windows of the samples per second
// of call time, each window at the reference speed its own kernel runs
// measured. A collection, a burst of CPU steal or a slow spell of the
// host then moves the windows it overlaps, not the reported rate; the
// kernel's own time is not call time.
func adjustedRate(took, cals []time.Duration, per int) float64 {
	k := min(rateWindows, len(took))
	rates := make([]float64, k)
	for w := range rates {
		lo, hi := w*len(took)/k, (w+1)*len(took)/k
		rates[w] = float64(per*(hi-lo)) / sum(took[lo:hi]).Seconds() / speed(cals[lo:hi])
	}
	return medianFloat(rates)
}
