package main

import (
	"math"
	"testing"
	"time"
)

// TestSpeedIsTrimmedMean: the host speed is the reference time over the
// mean kernel time, with the fastest and slowest tenth left out.
func TestSpeedIsTrimmedMean(t *testing.T) {
	cals := make([]time.Duration, 20)
	for i := range cals {
		cals[i] = 2 * calibRef // a host at half speed
	}
	cals[0] = 50 * calibRef // one run interrupted
	cals[1] = calibRef / 50 // and one impossibly fast
	if got := speed(cals); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("speed %v, want 0.5", got)
	}
	// Half the runs at each of two speeds: the mean time, not either mode.
	for i := range cals {
		cals[i] = calibRef
		if i%2 == 0 {
			cals[i] = 3 * calibRef
		}
	}
	if got := speed(cals); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mixed speed %v, want 0.5", got)
	}
	if got := speed(nil); got != 1 {
		t.Fatalf("no kernel runs: speed %v, want 1", got)
	}
}

// TestCPUPerSampleLeavesOutTheKernel: the kernel's own CPU time is not
// charged to the samples, and the rest is stated at the reference speed.
func TestCPUPerSampleLeavesOutTheKernel(t *testing.T) {
	cals := []time.Duration{2 * calibRef, 2 * calibRef} // half speed
	cpu := 10*time.Millisecond + sum(cals)
	if got := cpuPerSample(cpu, cals, 100); math.Abs(got-50) > 1e-9 {
		t.Fatalf("cpu per sample %v µs, want 50 (100 µs raw at half speed)", got)
	}
}

// TestCalibratedSetupAdjustsAndDiscards: set-up builds until told to stop,
// discards every build but the last, and reports the median build at the
// reference speed.
func TestCalibratedSetupAdjustsAndDiscards(t *testing.T) {
	builds, discards := 0, 0
	got, err := calibratedSetup(func(b []float64) bool { return len(b) == 3 },
		func() error { builds++; return nil }, func() { discards++ })
	if err != nil {
		t.Fatal(err)
	}
	if builds != 3 || discards != 2 {
		t.Fatalf("%d builds, %d discards; want 3 and 2", builds, discards)
	}
	if got <= 0 {
		t.Fatalf("setup %v s, want > 0", got)
	}
}
