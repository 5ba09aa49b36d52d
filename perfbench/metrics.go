package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"trident/internal/core"
)

// metricDef declares one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json (a test keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics a user of the system sees. Every
// workload reports every one of them. Timings are at the reference speed
// (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"samples_per_s", "1/s", "higher"},
	{"cpu_us_per_sample", "us", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"sim_energy_nj_per_sample", "nJ", "lower"},
}

// energyCategories are the ledger categories broken out per sample.
var energyCategories = []core.EnergyCategory{
	core.CatGSTTuning, core.CatGSTRead, core.CatActivationReset, core.CatBPDTIA,
	core.CatLDSU, core.CatEOLaser, core.CatCache, core.CatResidualJoin, core.CatWavelengthMerge,
}

// servedModels and batchBuckets name the per-model engine timings.
var (
	servedModels = []string{"digits", "wide"}
	batchBuckets = []struct {
		name   string
		lo, hi int
	}{{"b1", 1, 1}, {"b2_4", 2, 4}, {"b5_8", 5, 8}, {"b9_16", 9, 16}}
)

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"p50_ms", "ms", "lower"},
		{"p90_ms", "ms", "lower"},
		{"p99_ms", "ms", "lower"},
		{"host.speed", "ratio", "higher"},
		{"fail_ratio", "ratio", "lower"},
		{"serve.max_rate_rps", "1/s", "higher"},
		{"serve.saturated_rps", "1/s", "higher"},
		{"loadgen.lateness_p99_ms", "ms", "lower"},
		{"loadgen.max_send_delay_ms", "ms", "lower"},
		{"server.handler_us_p50", "us", "lower"},
		{"router.submit_us_p50", "us", "lower"},
		{"router.handoffs_per_1k", "count", "lower"},
		{"router.all_draining_per_1k", "count", "lower"},
		{"router.replica_share_max", "ratio", "lower"},
		{"batcher.batch_size_mean", "count", "higher"},
	}
	for _, m := range servedModels {
		defs = append(defs, metricDef{"batcher.probe_us_p50." + m, "us", "lower"})
	}
	for _, m := range servedModels {
		for _, b := range batchBuckets {
			defs = append(defs, metricDef{"batcher.engine_us_p50." + m + "." + b.name, "us", "lower"})
		}
	}
	for _, m := range servedModels {
		for r := 0; r < replicasPerModel; r++ {
			defs = append(defs, metricDef{fmt.Sprintf("batcher.busy_frac.%s.r%d", m, r), "ratio", "lower"})
		}
	}
	defs = append(defs,
		metricDef{"journal.ops", "count", "lower"},
		metricDef{"journal.mb", "MB", "lower"},
		metricDef{"maint.check_ms_p50", "ms", "lower"},
		metricDef{"maint.refresh_pulses", "count", "lower"},
		metricDef{"maint.masked_rows", "count", "lower"},
		metricDef{"maint.new_suspects", "count", "lower"},
		metricDef{"graph.train_batch_ms", "ms", "lower"},
		metricDef{"graph.forward_share", "ratio", "lower"},
		metricDef{"train.holdout_accuracy", "ratio", "higher"},
		metricDef{"pipeline.batch_ms", "ms", "lower"},
		metricDef{"pipeline.stage_occupancy.0", "ratio", "higher"},
		metricDef{"pipeline.stage_occupancy.1", "ratio", "higher"},
		metricDef{"pipeline.vs_sequential", "ratio", "higher"},
		metricDef{"mrr.rows_compiled_per_step", "count", "lower"},
		metricDef{"pcm.gst_writes_per_step", "count", "lower"},
		metricDef{"pcm.gst_writes_per_1k_samples", "count", "lower"},
	)
	for _, c := range energyCategories {
		defs = append(defs, metricDef{"ledger.energy_nj_per_sample." + string(c), "nJ", "lower"})
	}
	defs = append(defs,
		metricDef{"ledger.sim_time_us_per_sample", "us", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
		metricDef{"go.alloc_mb_per_1k_samples", "MB", "lower"},
		metricDef{"trace.overhead_p50_ms", "ms", "lower"},
		metricDef{"trace.overhead_samples_per_s_pct", "%", "lower"},
	)
	return defs
}()

// values is a metric-name → value map filled by a workload.
type values map[string]float64

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render picks the declared metrics out of vs, in declaration order; a
// metric the workload did not set reads 0. Non-finite values are an error:
// the JSON result cannot carry them and they always mean a broken run.
func render(defs []metricDef, vs values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vs[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// closedLoop is what a measured closed loop hands to closedLoopMetrics.
type closedLoop struct {
	setupS     float64         // median build, reference speed
	took, cals []time.Duration // per call in call order, and the kernel run after each
	per        int             // samples per call
	cpu        time.Duration   // process CPU time over the loop
	heapMB     float64
	energyJ    float64 // simulated ledger energy over the loop
}

// closedLoopMetrics sets a closed loop's end-to-end metrics and its raw
// latencies. The latencies are per call and not adjusted: the gated
// throughput already carries the call time.
func closedLoopMetrics(res *phaseResult, c closedLoop) {
	samples := len(c.took) * c.per
	res.e2e["setup_s"] = c.setupS
	res.e2e["samples_per_s"] = adjustedRate(c.took, c.cals, c.per)
	res.e2e["cpu_us_per_sample"] = cpuPerSample(c.cpu, c.cals, samples)
	res.e2e["peak_heap_mb"] = c.heapMB
	res.e2e["sim_energy_nj_per_sample"] = c.energyJ * 1e9 / float64(samples)
	vs := res.layer
	vs["p50_ms"] = ms(windowedPercentile(c.took, 50), 0)
	vs["p90_ms"] = ms(windowedPercentile(c.took, 90), 0)
	vs["p99_ms"] = ms(windowedPercentile(c.took, 99), 0)
	vs["host.speed"] = speed(c.cals)
}

// heapLive is the runtime metric behind peak_heap_mb: the heap marked
// live by the most recent GC.
const heapLive = "/gc/heap/live:bytes"

// heapSampler tracks the peak live heap while a phase runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func readHeapLive() uint64 {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler samples every 20ms until finish is called.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: readHeapLive()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := readHeapLive(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// finish stops the sampler, forces one collection so the final live heap
// is counted, and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	runtime.GC()
	if v := readHeapLive(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// goCounters is the Go runtime state diffed across a phase.
type goCounters struct {
	pauseNs, allocBytes uint64
}

func readGoCounters() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{pauseNs: m.PauseTotalNs, allocBytes: m.TotalAlloc}
}

// goLayer sets the go.* metrics for a phase that processed samples.
func goLayer(vs values, before, after goCounters, samples int) {
	vs["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	if samples > 0 {
		vs["go.alloc_mb_per_1k_samples"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / float64(samples) * 1000
	}
}

// ledgerState is a graph's energy ledger and sim clock, read while no
// batch is in flight.
type ledgerState struct {
	energy  map[core.EnergyCategory]float64 // joules
	elapsed float64                         // simulated seconds
}

func readLedger(g *core.Graph) ledgerState {
	led := g.Ledger()
	st := ledgerState{energy: map[core.EnergyCategory]float64{}, elapsed: led.Elapsed().Seconds()}
	for cat, e := range led.Breakdown() {
		st.energy[cat] = e.Joules()
	}
	return st
}

// ledgerDelta accumulates after−before over graphs into per-category
// joules and simulated seconds.
type ledgerDelta struct {
	energy  map[core.EnergyCategory]float64
	elapsed float64
}

func (d *ledgerDelta) add(before, after ledgerState) {
	if d.energy == nil {
		d.energy = map[core.EnergyCategory]float64{}
	}
	for cat, e := range after.energy {
		d.energy[cat] += e - before.energy[cat]
	}
	d.elapsed += after.elapsed - before.elapsed
}

func (d *ledgerDelta) totalJ() float64 {
	t := 0.0
	for _, e := range d.energy {
		t += e
	}
	return t
}

// ledgerLayer sets the ledger.* metrics for samples processed.
func ledgerLayer(vs values, d ledgerDelta, samples int) {
	if samples <= 0 {
		return
	}
	for _, c := range energyCategories {
		vs["ledger.energy_nj_per_sample."+string(c)] = d.energy[c] * 1e9 / float64(samples)
	}
	vs["ledger.sim_time_us_per_sample"] = d.elapsed * 1e6 / float64(samples)
}

// bankCounters sums the compile odometer and the GST write pulses over
// every bank of g. Write counters are plain fields: call it only while no
// batch or maintenance window is running.
type bankCounters struct {
	rowsCompiled, writes uint64
}

func readBanks(g *core.Graph) bankCounters {
	var c bankCounters
	g.ForEachPE(func(_, _, _ int, pe *core.PE) {
		bank := pe.Bank()
		c.rowsCompiled += bank.RowsCompiled()
		for r := 0; r < bank.Rows(); r++ {
			for col := 0; col < bank.Cols(); col++ {
				c.writes += bank.PhysicalTuner(r, col).Writes()
			}
		}
	})
	return c
}

func (c bankCounters) sub(o bankCounters) bankCounters {
	return bankCounters{rowsCompiled: c.rowsCompiled - o.rowsCompiled, writes: c.writes - o.writes}
}

func (c *bankCounters) add(o bankCounters) {
	c.rowsCompiled += o.rowsCompiled
	c.writes += o.writes
}

// bankLayer sets the mrr/pcm counters for a phase of steps and samples.
func bankLayer(vs values, d bankCounters, steps, samples int) {
	if steps > 0 {
		vs["mrr.rows_compiled_per_step"] = float64(d.rowsCompiled) / float64(steps)
		vs["pcm.gst_writes_per_step"] = float64(d.writes) / float64(steps)
	}
	if samples > 0 {
		vs["pcm.gst_writes_per_1k_samples"] = float64(d.writes) / float64(samples) * 1000
	}
}
