package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared host the same code can run at half
// speed for seconds to minutes with no CPU steal showing (another tenant
// on the same physical core, a lower clock), so a raw timing repeats only
// as well as the host does. The benchmark therefore times a fixed
// reference kernel of its own beside the work, and states the gated
// timings at a reference speed: a duration is scaled by calibRef ÷ the
// kernel's time, a rate by the inverse. The kernel calls no Trident code,
// so a change to the program moves the work and never the yardstick.

// calibRef is the reference kernel time that defines the reference speed:
// about what one kernel run takes on a quiet 2-CPU host of the kind the
// benchmark was tuned on, so adjusted values read close to raw ones there.
const calibRef = 180 * time.Microsecond

const calibN = 32

var calibA, calibB, calibC [calibN * calibN]float64

func init() {
	for i := range calibA {
		calibA[i] = float64(i%7)*0.1 - 0.3
		calibB[i] = float64(i%5)*0.2 - 0.4
	}
}

// calibrate runs the reference kernel (four 32×32 float64 matrix
// products, in L1) once and returns the CPU time its thread spent, so
// time the thread was not running does not count.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < calibN; i++ {
			for j := 0; j < calibN; j++ {
				s := 0.0
				for l := 0; l < calibN; l++ {
					s += calibA[i*calibN+l] * calibB[l*calibN+j]
				}
				calibC[i*calibN+j] = s
			}
		}
	}
	return threadCPU() - t0
}

// speed is the host's speed relative to the reference, from kernel runs
// spread over the measured work: 1 at the reference, 0.5 on a host running
// at half speed. Work slows in proportion to the mean kernel time over the
// same span, so the estimate is a mean, trimmed of the fastest and slowest
// tenth so that one interrupted run does not move it. An adjusted duration
// is raw × speed; an adjusted rate is raw ÷ speed.
func speed(cals []time.Duration) float64 {
	s := sortedCopy(cals)
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	if len(s) == 0 {
		return 1
	}
	mean := float64(sum(s)) / float64(len(s))
	if mean <= 0 {
		return 1
	}
	return float64(calibRef) / mean
}

// sum adds up durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSampler runs the kernel every period beside an open-loop phase.
type calibSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	cals []time.Duration
}

func startCalibSampler(period time.Duration) *calibSampler {
	c := &calibSampler{stop: make(chan struct{})}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.cals = append(c.cals, calibrate())
			}
		}
	}()
	return c
}

// finish stops the sampler and returns its kernel times.
func (c *calibSampler) finish() []time.Duration {
	close(c.stop)
	c.done.Wait()
	return c.cals
}

// cpuPerSample is the process CPU time a phase spent per sample, less the
// calibration kernel's own runs, at the reference speed, in µs.
func cpuPerSample(cpu time.Duration, cals []time.Duration, samples int) float64 {
	if samples <= 0 {
		return 0
	}
	return us(cpu-sum(cals)) * speed(cals) / float64(samples)
}

// calibratedSetup builds until done says enough, running the kernel
// setupCals times before each build, and returns the median build time in
// seconds at the reference speed. A non-nil discard runs, untimed, before
// every build but the first, to release the previous one.
func calibratedSetup(done func(builds []float64) bool, build func() error, discard func()) (float64, error) {
	var builds []float64
	var cals []time.Duration
	for !done(builds) {
		if discard != nil && len(builds) > 0 {
			discard()
		}
		for i := 0; i < setupCals; i++ {
			cals = append(cals, calibrate())
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	return medianFloat(builds) * speed(cals), nil
}

const setupCals = 5
