package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/dataset"
	"trident/internal/tensor"
)

// infer-cnn: batches of 64 procedural images through a 2-stage pipeline
// over the four-conv DeepCNN, noise off, one caller, closed loop.
const (
	cnnBatch   = 64
	cnnBatches = 16 // distinct input batches, cycled
	cnnStages  = 2
)

// cnnSpecs is the four-conv stack of the pipelined-execution benchmarks:
// 1×8×8 input, stride-2 third stage, 3 classes.
func cnnSpecs() []tensor.Conv2DSpec {
	conv := func(inC, inH, outC, stride int) tensor.Conv2DSpec {
		return tensor.Conv2DSpec{InC: inC, InH: inH, InW: inH, OutC: outC, KH: 3, KW: 3,
			StrideH: stride, StrideW: stride, PadH: 1, PadW: 1, Groups: 1}
	}
	return []tensor.Conv2DSpec{conv(1, 8, 4, 1), conv(4, 8, 6, 1), conv(6, 8, 6, 2), conv(6, 4, 8, 1)}
}

func buildCNN() (*core.Graph, *core.Pipeline, error) {
	d, err := core.NewDeepCNN(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.1,
	}, cnnSpecs(), 3)
	if err != nil {
		return nil, nil, err
	}
	cuts, err := dataflow.PlanStages(d.Graph, cnnStages)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewPipeline(d.Graph, cuts, 0)
	if err != nil {
		return nil, nil, err
	}
	return d.Graph, p, nil
}

// makeCNNBatches packs the seeded images into cnnBatches row-major batches.
func makeCNNBatches(seed int64) [][]float64 {
	set := dataset.MiniImages(cnnBatch*cnnBatches, 3, 1, 8, 8, 0.1, seed+5)
	out := make([][]float64, cnnBatches)
	for i, img := range set.Inputs {
		out[i/cnnBatch] = append(out[i/cnnBatch], img.Data()...)
	}
	return out
}

func runCNN(cfg runConfig, tr *tracer) (*phaseResult, error) {
	batches := makeCNNBatches(cfg.seed)
	var g *core.Graph
	var p *core.Pipeline
	setupS, err := calibratedSetup(func(b []float64) bool { return setupDone(cfg, b) }, func() (err error) {
		g, p, err = buildCNN()
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("build pipeline: %w", err)
	}
	// Warm-up: one pass compiles every bank before anything is timed.
	if _, err := p.ForwardBatchPipelined(nil, batches[0], cnnBatch); err != nil {
		return nil, err
	}

	runtime.GC() // start every run from the same collected heap
	led0, banks0, g0 := readLedger(g), readBanks(g), readGoCounters()
	heap := startHeapSampler()
	outs := make([][]float64, cnnBatches) // last output per distinct batch
	var took, seq, cals []time.Duration
	occ := make([]float64, cnnStages)
	var seqBuf []float64
	total := time.Duration(cfg.seconds * float64(time.Second))
	cpu0 := processCPU()
	start := time.Now()
	for i := 0; time.Since(start) < total || i < minCalls(cfg); i++ {
		k := i % cnnBatches
		step, endStep := tr.begin("infer.step", 0, int64(i))
		_, end := tr.begin("pipeline.batch", step, int64(i))
		out, err := p.ForwardBatchPipelined(outs[k], batches[k], cnnBatch)
		took = append(took, end())
		if err != nil {
			return nil, fmt.Errorf("pipelined batch %d: %w", i, err)
		}
		outs[k] = out
		cals = append(cals, calibrate())
		if tr != nil {
			for s, o := range p.StageOccupancy() {
				occ[s] += o
			}
			// The sequential twin: the same batch through the unpipelined
			// batched path of the same graph.
			_, end := tr.begin("graph.forward_batch", step, int64(i))
			if seqBuf, err = g.ForwardBatchInto(seqBuf, batches[k], cnnBatch); err != nil {
				return nil, err
			}
			seq = append(seq, end())
		}
		endStep()
	}
	elapsed := time.Since(start)
	cpu := processCPU() - cpu0
	heapMB := heap.finish()
	led1, banks1, g1 := readLedger(g), readBanks(g), readGoCounters()
	calls := len(took)
	samples := calls * cnnBatch

	res := &phaseResult{attempted: calls, e2e: values{}, layer: values{}}
	seqOuts := make([][]float64, cnnBatches)
	for k := range batches {
		if outs[k] == nil {
			continue
		}
		var err error
		if seqOuts[k], err = g.ForwardBatch(batches[k], cnnBatch); err != nil {
			return nil, err
		}
	}
	if res.gate = checkBitIdentical(outs, seqOuts); res.gate != nil {
		return res, nil
	}
	sorted := sortedCopy(took)
	var led ledgerDelta
	led.add(led0, led1)
	closedLoopMetrics(res, closedLoop{setupS: setupS, took: took, cals: cals,
		per: cnnBatch, cpu: cpu, heapMB: heapMB, energyJ: led.totalJ()})

	vs := res.layer
	vs["pipeline.batch_ms"] = ms(percentile(sorted, 50), 0)
	if len(seq) > 0 {
		vs["pipeline.vs_sequential"] = ms(percentile(sortedCopy(seq), 50), 0) / vs["pipeline.batch_ms"]
		for s := range occ {
			vs[fmt.Sprintf("pipeline.stage_occupancy.%d", s)] = occ[s] / float64(calls)
		}
	}
	bankLayer(vs, banks1.sub(banks0), calls, samples)
	ledgerLayer(vs, led, samples)
	goLayer(vs, g0, g1, samples)
	res.info = append(res.info, fmt.Sprintf("samples: %d pipelined calls of %d over %v across %d stages",
		calls, cnnBatch, elapsed.Round(time.Millisecond), p.Stages()))
	return res, nil
}

// checkBitIdentical requires every pipelined output to equal the
// sequential output of the same batch bit for bit.
func checkBitIdentical(piped, seq [][]float64) error {
	for k := range piped {
		if len(piped[k]) != len(seq[k]) {
			return fmt.Errorf("%w: batch %d: pipelined %d values, sequential %d", errGate, k, len(piped[k]), len(seq[k]))
		}
		for i := range piped[k] {
			if math.Float64bits(piped[k][i]) != math.Float64bits(seq[k][i]) {
				return fmt.Errorf("%w: batch %d value %d: pipelined %v, sequential %v", errGate, k, i, piped[k][i], seq[k][i])
			}
		}
	}
	return nil
}
