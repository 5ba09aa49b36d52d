package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 100; i++ {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}, {0.1, time.Millisecond}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

// TestTailPercentileRule pins the reporting rule: a tail percentile is
// reported only with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if !supports(1000, 99) || supports(999, 99) {
		t.Error("p99 needs exactly ten samples beyond it: 1000 supports, 999 does not")
	}
}

// sends builds n on-time successful sends at the given latency.
func sends(n int, interval, lat time.Duration) []send {
	out := make([]send, n)
	for i := range out {
		due := time.Duration(i) * interval
		out[i] = send{due: due, sent: due, done: due + lat, ok: true}
	}
	return out
}

// TestLatenessAccounting checks the open-loop rule: latency runs from the
// due time, so a late send is charged to the request, lateness is reported
// separately, and a failed request is a miss.
func TestLatenessAccounting(t *testing.T) {
	ss := sends(100, time.Millisecond, 2*time.Millisecond)
	// Request 10 went out 5ms late and took 2ms once sent.
	ss[10].sent += 5 * time.Millisecond
	ss[10].done += 5 * time.Millisecond
	if got := ss[10].latency(); got != 7*time.Millisecond {
		t.Fatalf("late request latency %v, want 7ms from its due time", got)
	}
	if got := ss[10].lateness(); got != 5*time.Millisecond {
		t.Fatalf("lateness %v, want 5ms", got)
	}
	ss[20].ok = false
	if ss[20].latency() != miss {
		t.Fatal("a failed request must be a miss")
	}
	r := summarize(1000, ss, 100*time.Millisecond)
	if r.failed != 1 || r.n != 100 {
		t.Fatalf("failed=%d n=%d, want 1 of 100", r.failed, r.n)
	}
	if r.lateMax != 5*time.Millisecond {
		t.Fatalf("max send delay %v, want 5ms", r.lateMax)
	}
	if r.p50 != 2*time.Millisecond {
		t.Fatalf("p50 %v, want 2ms", r.p50)
	}
	// Nearest-rank p99 of 100 is the 99th value: the 7ms late request (the
	// miss sorts last).
	if r.p99 != 7*time.Millisecond {
		t.Fatalf("p99 %v, want 7ms", r.p99)
	}
	ss[30].ok = false
	if r := summarize(1000, ss, 100*time.Millisecond); r.p99 != miss {
		t.Fatalf("two misses in 100 must put p99 on a miss, got %v", r.p99)
	}
	if got := ms(miss, 100*time.Millisecond); got != 100 {
		t.Fatalf("a miss reads as the phase length, got %vms", got)
	}
}

func TestLadderMaxRate(t *testing.T) {
	rule := ladderRule{p99Limit: 20 * time.Millisecond, maxFail: 0.01, lateLimit: 5 * time.Millisecond}
	ok := func(rate float64) rung { return summarize(rate, sends(400, time.Millisecond, 3*time.Millisecond), 0) }
	slow := func(rate float64) rung { return summarize(rate, sends(400, time.Millisecond, 30*time.Millisecond), 0) }
	refused := func(rate float64) rung {
		r := sends(400, time.Millisecond, 3*time.Millisecond)
		for i := 0; i < 5; i++ {
			r[i*50].ok = false
		}
		return summarize(rate, r, 0)
	}
	late := func(rate float64) rung {
		r := sends(400, time.Millisecond, 3*time.Millisecond)
		for i := range r {
			r[i].sent += 6 * time.Millisecond
			r[i].done += 6 * time.Millisecond
		}
		return summarize(rate, r, 0)
	}
	backlog := func(rate float64) rung {
		r := sends(400, time.Millisecond, 0)
		for i := range r {
			r[i].done = r[i].due + time.Duration(1+i/40)*time.Millisecond
		}
		return summarize(rate, r, 0)
	}
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all pass", []rung{ok(500), ok(1000), ok(2000)}, 2000},
		{"p99 over limit", []rung{ok(500), ok(1000), slow(2000)}, 1000},
		{"unordered input", []rung{slow(2000), ok(1000), ok(500)}, 1000},
		{"a pass above a failure does not count", []rung{ok(500), slow(1000), ok(2000)}, 500},
		{"failures over 1%", []rung{ok(500), refused(1000)}, 500},
		{"late generator invalidates", []rung{ok(500), late(1000)}, 500},
		{"growing backlog", []rung{ok(500), backlog(1000)}, 500},
		{"lowest fails", []rung{slow(500)}, 0},
	} {
		if got := rule.maxRate(c.rungs); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
	if v := rule.verdict(late(1)); v != "invalid: generator late" {
		t.Errorf("late verdict %q", v)
	}
	if v := rule.verdict(backlog(1)); v != "growing backlog" {
		t.Errorf("backlog verdict %q", v)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

// TestWindowedMediansIgnoreOneStall: one window hit by a stall moves its
// own tail and rate, not the reported medians.
func TestWindowedMediansIgnoreOneStall(t *testing.T) {
	lat := make([]time.Duration, 5000)
	for i := range lat {
		lat[i] = time.Duration(1+i%100) * 100 * time.Microsecond // 0.1–10ms, p99 9.9ms
	}
	for i := 1000; i < 1100; i++ {
		lat[i] = 80 * time.Millisecond // a stall in the second window
	}
	if got := percentile(sortedCopy(lat), 99); got != 80*time.Millisecond {
		t.Fatalf("plain p99 %v should see the stall", got)
	}
	if got := windowedPercentile(lat, 99); got != 9900*time.Microsecond {
		t.Fatalf("windowed p99 %v, want 9.9ms", got)
	}
	for _, c := range []struct {
		p       float64
		windows int
	}{{99, 5}, {90, 10}, {50, 50}} {
		if got := len(windowPercentiles(lat, c.p)); got != c.windows {
			t.Fatalf("p%v: %d windows, want %d", c.p, got, c.windows)
		}
	}
	if got := windowedPercentile(lat[:1500], 99); got != percentile(sortedCopy(lat[:1500]), 99) {
		t.Fatal("under two windows must fall back to the plain percentile")
	}

	// Forty 4-sample calls of 5ms per window at the reference speed, except
	// a stalled window whose calls take 50ms, and a window on a host at
	// half speed whose calls take 10ms and whose kernel runs twice as long.
	var took, cals []time.Duration
	for w := 0; w < rateWindows; w++ {
		call, cal := 5*time.Millisecond, calibRef
		switch w {
		case 3:
			call = 50 * time.Millisecond
		case 7:
			call, cal = 10*time.Millisecond, 2*calibRef
		}
		for i := 0; i < 40; i++ {
			took = append(took, call)
			cals = append(cals, cal)
		}
	}
	if got := adjustedRate(took, cals, 4); got != 800 {
		t.Fatalf("adjusted rate %v, want 800 samples/s", got)
	}
	if got := adjustedRate(took[7*40:8*40], cals[7*40:8*40], 4); got != 800 {
		t.Fatalf("half-speed window adjusted to %v samples/s, want 800", got)
	}
}
