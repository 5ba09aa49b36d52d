package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"trident/internal/core"
	"trident/internal/reliability"
	"trident/internal/serve"
)

// The serving traffic. Both serving workloads offer the same load;
// serve-churn adds a churn step every checkTick beside the open loop.
const (
	fixedRate = 500.0 // requests/s of the gated fixed-rate phase
	callers   = 64    // closed-loop clients of the throughput phase
	satRate   = 8000  // nominal requests/s that size the throughput phase
	checkTick = 125 * time.Millisecond
	// calibTick is how often the reference kernel runs beside the
	// fixed-rate phase (about 1% of one CPU).
	calibTick = 20 * time.Millisecond
)

// ladder is the ascending rates probed for serve.max_rate_rps.
var ladder = []float64{750, 1100, 1600, 2400, 3600}

// Phase shares of the measured time, run in this order: gated fixed-rate
// phase, closed-loop throughput phase, rate ladder. The ladder runs last
// because it stops at its first failing rung, so its length varies.
const (
	fixedShare  = 0.55
	satShare    = 0.25
	ladderShare = 0.2
)

// servingRule is the ladder's sustain rule.
var servingRule = ladderRule{p99Limit: 20 * time.Millisecond, maxFail: 0.01, lateLimit: 5 * time.Millisecond}

// repState is one replica's counters at a quiescent point.
type repState struct {
	led   ledgerState
	banks bankCounters
	stats serve.Snapshot
}

func runServing(cfg runConfig, tr *tracer, churn bool) (*phaseResult, error) {
	digitsPool, widePool := makePools(cfg.seed)
	var d *deployment
	setupS, err := calibratedSetup(func(b []float64) bool { return setupDone(cfg, b) }, func() (err error) {
		d, err = buildDeployment(cfg.seed, digitsPool, widePool, churn, tr)
		return err
	}, func() { d.shutdown() })
	if err != nil {
		return nil, fmt.Errorf("build deployment: %w", err)
	}
	defer d.shutdown()
	for _, rep := range d.allReplicas() {
		if rep.timed != nil {
			rep.timed.reset()
		}
	}

	before := map[*replica]repState{}
	if err := d.quiesced(func(rep *replica) {
		before[rep] = repState{readLedger(rep.graph), readBanks(rep.graph), rep.inst.Stats()}
	}); err != nil {
		return nil, err
	}
	snap0 := d.rt.Snapshot()
	runtime.GC() // start every run from the same collected heap
	g0 := readGoCounters()
	heap := startHeapSampler()

	var ch *churner
	if churn {
		ch = &churner{d: d}
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 1))
	start := time.Now()
	fixedDur := time.Duration(fixedShare * float64(total))
	var fixed rung
	cal := startCalibSampler(calibTick)
	cpu0 := processCPU()
	err = ch.during(checkTick, func() {
		fixed = summarize(fixedRate, d.openLoop(fixedRate, fixedDur, rng), fixedDur)
	})
	fixedCPU := processCPU() - cpu0
	cals := cal.finish()
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	if !cfg.smoke && !supports(fixed.n, 99) {
		return nil, fmt.Errorf("%d fixed-rate requests cannot support a p99; raise --seconds", fixed.n)
	}
	satN := int(satRate * satShare * cfg.seconds)
	saturated, served, satFailed, err := d.saturate(callers, satN, cfg.seed*31+5, ch)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	var rungs []rung
	rungDur := time.Duration(ladderShare * float64(total) / float64(len(ladder)))
	if err := ch.during(checkTick, func() {
		for _, rate := range ladder {
			r := summarize(rate, d.openLoop(rate, rungDur, rng), rungDur)
			rungs = append(rungs, r)
			if servingRule.verdict(r) != "ok" {
				break
			}
		}
	}); err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	wall := time.Since(start)
	heapMB := heap.finish()
	g1 := readGoCounters()

	var led ledgerDelta
	var banks bankCounters
	var batches, samples int
	var sizeSum, sizeCount uint64
	if err := d.quiesced(func(rep *replica) {
		b := before[rep]
		led.add(b.led, readLedger(rep.graph))
		banks.add(readBanks(rep.graph).sub(b.banks))
		st := rep.inst.Stats()
		batches += int(st.Batches - b.stats.Batches)
		samples += int(st.Served - b.stats.Served)
		for size, n := range st.BatchSizeHist {
			var was uint64
			if size < len(b.stats.BatchSizeHist) {
				was = b.stats.BatchSizeHist[size]
			}
			sizeSum += uint64(size) * (n - was)
			sizeCount += n - was
		}
	}); err != nil {
		return nil, err
	}
	snap1 := d.rt.Snapshot()

	res := &phaseResult{e2e: values{}, layer: values{}}
	ladderAttempts := 0
	for _, r := range rungs {
		ladderAttempts += r.n
	}
	res.attempted = fixed.n + ladderAttempts + served + satFailed
	res.failed = fixed.failed + satFailed
	if err := d.gate(snap1); err != nil {
		res.gate = err
		return res, nil
	}

	res.e2e["setup_s"] = setupS
	res.e2e["samples_per_s"] = fixed.goodput
	res.e2e["cpu_us_per_sample"] = cpuPerSample(fixedCPU, cals, fixed.n)
	res.e2e["peak_heap_mb"] = heapMB
	if samples > 0 {
		res.e2e["sim_energy_nj_per_sample"] = led.totalJ() * 1e9 / float64(samples)
	}

	vs := res.layer
	vs["p50_ms"] = ms(fixed.p50, fixedDur)
	vs["p90_ms"] = ms(fixed.p90, fixedDur)
	vs["p99_ms"] = ms(fixed.p99, fixedDur)
	vs["host.speed"] = speed(cals)
	vs["fail_ratio"] = float64(res.failed) / float64(fixed.n+served+satFailed)
	vs["serve.max_rate_rps"] = servingRule.maxRate(append([]rung{fixed}, rungs...))
	vs["serve.saturated_rps"] = saturated
	lateMax := fixed.lateMax
	for _, r := range rungs {
		if r.lateMax > lateMax {
			lateMax = r.lateMax
		}
	}
	vs["loadgen.lateness_p99_ms"] = ms(fixed.lateP99, 0)
	vs["loadgen.max_send_delay_ms"] = ms(lateMax, 0)
	if sub := snap1.Submitted - snap0.Submitted; sub > 0 {
		vs["router.handoffs_per_1k"] = float64(snap1.Handoffs-snap0.Handoffs) / float64(sub) * 1000
		vs["router.all_draining_per_1k"] = float64(snap1.AllDraining-snap0.AllDraining) / float64(sub) * 1000
	}
	vs["router.replica_share_max"] = replicaShareMax(d, before)
	if sizeCount > 0 {
		vs["batcher.batch_size_mean"] = float64(sizeSum) / float64(sizeCount)
	}
	journalLayer(vs, d)
	maintLayer(vs, d)
	bankLayer(vs, banks, batches, samples)
	ledgerLayer(vs, led, samples)
	goLayer(vs, g0, g1, samples)
	if tr != nil {
		tracedServingLayer(vs, d, wall)
	}

	res.info = append(res.info, fmt.Sprintf("fixed-rate cost: %.1f us CPU per request raw, host speed %.3f; batch size mean %.2f, largest replica share %.2f",
		us(fixedCPU-sum(cals))/float64(max(fixed.n, 1)), speed(cals), vs["batcher.batch_size_mean"], vs["router.replica_share_max"]))
	res.info = append(res.info, fmt.Sprintf("samples: fixed-rate %d requests at %.0f/s over %v (highest supported tail p%.1f); throughput phase %d served by %d callers in %d rounds, median round %.0f/s",
		fixed.n, fixed.rate, fixedDur, fixed.tail, served, callers, satRounds, saturated))
	for _, r := range append([]rung{fixed}, rungs...) {
		windows := ""
		for _, w := range r.p99Windows {
			windows += fmt.Sprintf(" %.1f", ms(w, r.duration))
		}
		res.info = append(res.info, fmt.Sprintf("rung %6.0f/s: n=%d failed=%d goodput=%.1f/s p50=%.3fms p90=%.3fms p99=%.3fms (windows:%s) late_p99=%.3fms late_max=%.3fms -> %s",
			r.rate, r.n, r.failed, r.goodput, ms(r.p50, r.duration), ms(r.p90, r.duration), ms(r.p99, r.duration), windows, ms(r.lateP99, 0), ms(r.lateMax, 0), servingRule.verdict(r)))
	}
	return res, nil
}

// replicaShareMax is the largest share of its model's served requests any
// one replica took during the phase (0.5 is an even split of two).
func replicaShareMax(d *deployment, before map[*replica]repState) float64 {
	worst := 0.0
	for _, m := range d.models {
		var total uint64
		per := make([]uint64, len(m.replicas))
		for i, rep := range m.replicas {
			per[i] = rep.inst.Stats().Served - before[rep].stats.Served
			total += per[i]
		}
		for _, n := range per {
			if total > 0 && float64(n)/float64(total) > worst {
				worst = float64(n) / float64(total)
			}
		}
	}
	return worst
}

// journalLayer sets journal.ops and journal.mb: every recorded op and the
// bytes its retained inputs and classes hold.
func journalLayer(vs values, d *deployment) {
	ops, bytes := 0, 0
	for _, rep := range d.allReplicas() {
		for _, op := range rep.inst.Journal().Ops() {
			ops++
			bytes += 8 * (len(op.Inputs) + len(op.Classes))
		}
	}
	vs["journal.ops"] = float64(ops)
	vs["journal.mb"] = float64(bytes) / (1 << 20)
}

// maintLayer sets the maint.* metrics from every replica's check log.
func maintLayer(vs values, d *deployment) {
	var took []time.Duration
	refreshed, suspects, masked := 0, 0, 0
	for _, rep := range d.allReplicas() {
		rep.checks.mu.Lock()
		took = append(took, rep.checks.took...)
		refreshed += rep.checks.refreshed
		suspects += rep.checks.newSuspects
		masked += rep.checks.masked
		rep.checks.mu.Unlock()
	}
	if len(took) > 0 {
		vs["maint.check_ms_p50"] = ms(percentile(sortedCopy(took), 50), 0)
	}
	vs["maint.refresh_pulses"] = float64(refreshed)
	vs["maint.masked_rows"] = float64(masked)
	vs["maint.new_suspects"] = float64(suspects)
}

// tracedServingLayer sets the metrics only the traced run can see: engine
// and probe time per batch, busy fractions, and the handler's own cost.
func tracedServingLayer(vs values, d *deployment, wall time.Duration) {
	for _, m := range d.models {
		bySize := map[int][]time.Duration{}
		var probes []time.Duration
		for _, rep := range m.replicas {
			e := rep.timed
			e.mu.Lock()
			for size, ds := range e.bySize {
				bySize[size] = append(bySize[size], ds...)
			}
			probes = append(probes, e.probes...)
			vs[fmt.Sprintf("batcher.busy_frac.%s.r%d", m.name, rep.idx)] = e.busy.Seconds() / wall.Seconds()
			e.mu.Unlock()
		}
		vs["batcher.probe_us_p50."+m.name] = us(percentile(sortedCopy(probes), 50))
		for _, b := range batchBuckets {
			var ds []time.Duration
			for size := b.lo; size <= b.hi; size++ {
				ds = append(ds, bySize[size]...)
			}
			vs["batcher.engine_us_p50."+m.name+"."+b.name] = us(percentile(sortedCopy(ds), 50))
		}
	}
	vs["router.submit_us_p50"] = us(percentile(sortedCopy(d.tr.durations("router.submit")), 50))
	vs["server.handler_us_p50"] = us(d.handlerCost.median())
}

// gate checks the serving outputs after the timed phases. Both workloads
// require a balanced router ledger. serve-steady requires every reply to
// equal a reference replica's class for the same input; serve-churn, whose
// banks drift and fault on purpose, requires every replica's journal to
// replay bit-identically on a twin.
func (d *deployment) gate(sn serve.RouterSnapshot) error {
	if lost := sn.Lost(); lost != 0 {
		return fmt.Errorf("%w: router lost %d requests", errGate, lost)
	}
	if !d.churn {
		ref := map[*servedModel][]int{}
		for _, m := range d.models {
			classes, err := referenceClasses(m)
			if err != nil {
				return err
			}
			ref[m] = classes
		}
		return checkReplies(d.replies.entries, ref)
	}
	for _, rep := range d.allReplicas() {
		if err := replayOnTwin(d.model(rep.model), rep); err != nil {
			return err
		}
	}
	return nil
}

func (d *deployment) model(name string) *servedModel {
	for _, m := range d.models {
		if m.name == name {
			return m
		}
	}
	return nil
}

// referenceClasses classifies m's whole pool on a fresh replica that never
// served.
func referenceClasses(m *servedModel) ([]int, error) {
	ref, err := m.base.Replicate()
	if err != nil {
		return nil, err
	}
	width := len(m.inputs[0])
	xs := make([]float64, 0, len(m.inputs)*width)
	for _, x := range m.inputs {
		xs = append(xs, x...)
	}
	classes, err := ref.PredictBatch(nil, xs, len(m.inputs))
	if err != nil {
		return nil, err
	}
	return append([]int(nil), classes...), nil
}

// checkReplies fails on the first reply whose class differs from the
// reference class of its input.
func checkReplies(entries []reply, ref map[*servedModel][]int) error {
	for i, e := range entries {
		if want := ref[e.model][e.input]; e.cls != want {
			return fmt.Errorf("%w: reply %d for %s input %d is class %d, reference says %d",
				errGate, i, e.model.name, e.input, e.cls, want)
		}
	}
	return nil
}

// replayOnTwin replays rep's journal on a twin stamped from the same
// snapshot with the same wear budgets and maintenance recipe.
func replayOnTwin(m *servedModel, rep *replica) error {
	twin, err := m.base.Replicate()
	if err != nil {
		return err
	}
	if _, err := reliability.AttachWear(twin.Graph, rep.wear); err != nil {
		return err
	}
	check, err := serve.TwinChecker(twin.Graph, rep.mcfg)
	if err != nil {
		return err
	}
	return checkReplay(rep.inst.Name(), rep.inst.Journal(), twin.Graph, check)
}

// checkReplay replays j on twin and fails on any diverging batch.
func checkReplay(name string, j *serve.Journal, twin *core.Graph, check func(int) error) error {
	batches, mismatches, err := j.Replay(twin, check)
	if err != nil {
		return fmt.Errorf("%w: replaying %s: %v", errGate, name, err)
	}
	if want := j.CountKind(serve.OpBatch); batches != want {
		return fmt.Errorf("%w: %s replayed %d of %d batches", errGate, name, batches, want)
	}
	if mismatches != 0 {
		return fmt.Errorf("%w: %s: %d of %d replayed batches diverged on the twin", errGate, name, mismatches, batches)
	}
	return nil
}
