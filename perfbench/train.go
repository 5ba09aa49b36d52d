package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"trident/internal/core"
	"trident/internal/dataset"
)

// train-mlp: in-situ minibatch training of a 256→256→10 network on 32×32
// PEs with analog noise on, one caller, closed loop.
const (
	trainBatch     = 32
	trainSamples   = 4096
	holdoutSamples = 1024
	trainClasses   = 10
	trainDim       = 256
	// accuracyFloor is the held-out accuracy the trained network must
	// reach; the blobs are separable, so a working trainer clears it
	// within the first epoch.
	accuracyFloor = 0.9
)

// trainData is the seeded train and held-out split, packed row-major.
type trainData struct {
	xs, holdX []float64
	ys, holdY []int
}

func makeTrainData(seed int64) trainData {
	set := dataset.Blobs(trainSamples+holdoutSamples, trainClasses, trainDim, 0.8, seed+3)
	tr, ho := set.Split(float64(trainSamples) / float64(set.Len()))
	var d trainData
	for i, x := range tr.Inputs {
		d.xs = append(d.xs, x.Data()...)
		d.ys = append(d.ys, tr.Labels[i])
	}
	for i, x := range ho.Inputs {
		d.holdX = append(d.holdX, x.Data()...)
		d.holdY = append(d.holdY, ho.Labels[i])
	}
	return d
}

func buildTrainNet(seed int64) (*core.Graph, error) {
	g, err := core.NewGraph(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 32, Cols: 32, NoiseSeed: seed},
		LearningRate: 0.05,
	}, trainDim)
	if err != nil {
		return nil, err
	}
	h := g.Dense(g.Input(), core.LayerSpec{In: trainDim, Out: 256, Activate: true}, seed*2+1)
	out := g.Dense(h, core.LayerSpec{In: 256, Out: trainClasses}, seed*2+2)
	if err := g.SetOutput(out); err != nil {
		return nil, err
	}
	return g, nil
}

// batcher hands out seeded shuffled minibatches, epoch after epoch.
type batcher struct {
	data  trainData
	rng   *rand.Rand
	order []int
	pos   int
	xs    []float64
	ys    []int
}

func newBatcher(data trainData, seed int64) *batcher {
	return &batcher{data: data, rng: rand.New(rand.NewSource(seed)),
		xs: make([]float64, trainBatch*trainDim), ys: make([]int, trainBatch)}
}

func (b *batcher) next() ([]float64, []int) {
	for s := 0; s < trainBatch; s++ {
		if b.pos == len(b.order) {
			b.order = b.rng.Perm(len(b.data.ys))
			b.pos = 0
		}
		i := b.order[b.pos]
		b.pos++
		copy(b.xs[s*trainDim:(s+1)*trainDim], b.data.xs[i*trainDim:(i+1)*trainDim])
		b.ys[s] = b.data.ys[i]
	}
	return b.xs, b.ys
}

func runTrain(cfg runConfig, tr *tracer) (*phaseResult, error) {
	data := makeTrainData(cfg.seed)
	var g *core.Graph
	setupS, err := calibratedSetup(func(b []float64) bool { return setupDone(cfg, b) }, func() (err error) {
		g, err = buildTrainNet(cfg.seed)
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	bt := newBatcher(data, cfg.seed+17)

	runtime.GC() // start every run from the same collected heap
	led0, banks0, g0 := readLedger(g), readBanks(g), readGoCounters()
	heap := startHeapSampler()
	var took, fwd, cals []time.Duration
	var losses []float64
	var fwdBuf []float64
	total := time.Duration(cfg.seconds * float64(time.Second))
	cpu0 := processCPU()
	start := time.Now()
	// At least one epoch runs, so the accuracy gate judges a trained network
	// even on a short run.
	for time.Since(start) < total || len(took) < max(minCalls(cfg), trainSamples/trainBatch) {
		// A step span's self time is the benchmark's own batch assembly.
		step, endStep := tr.begin("train.step", 0, int64(len(took)))
		xs, ys := bt.next()
		if tr != nil {
			// The forward twin: the same batch through the serving forward
			// path, timed beside the step it is a part of.
			_, end := tr.begin("graph.forward_batch", step, int64(len(took)))
			var err error
			if fwdBuf, err = g.ForwardBatchInto(fwdBuf, xs, trainBatch); err != nil {
				return nil, err
			}
			fwd = append(fwd, end())
		}
		_, end := tr.begin("graph.train_batch", step, int64(len(took)))
		loss, err := g.TrainBatch(xs, ys)
		took = append(took, end())
		endStep()
		if err != nil {
			return nil, fmt.Errorf("train step %d: %w", len(took), err)
		}
		losses = append(losses, loss)
		cals = append(cals, calibrate())
	}
	elapsed := time.Since(start)
	cpu := processCPU() - cpu0
	heapMB := heap.finish()
	led1, banks1, g1 := readLedger(g), readBanks(g), readGoCounters()
	steps := len(took)
	samples := steps * trainBatch

	res := &phaseResult{attempted: steps, e2e: values{}, layer: values{}}
	acc, err := holdoutAccuracy(g, data)
	if err != nil {
		return nil, err
	}
	if res.gate = checkTraining(losses, acc, accuracyFloor); res.gate != nil {
		return res, nil
	}
	sorted := sortedCopy(took)
	var led ledgerDelta
	led.add(led0, led1)
	closedLoopMetrics(res, closedLoop{setupS: setupS, took: took, cals: cals,
		per: trainBatch, cpu: cpu, heapMB: heapMB, energyJ: led.totalJ()})

	vs := res.layer
	vs["train.holdout_accuracy"] = acc
	vs["graph.train_batch_ms"] = ms(percentile(sorted, 50), 0)
	if len(fwd) > 0 {
		vs["graph.forward_share"] = ms(percentile(sortedCopy(fwd), 50), 0) / vs["graph.train_batch_ms"]
	}
	bankLayer(vs, banks1.sub(banks0), steps, samples)
	ledgerLayer(vs, led, samples)
	goLayer(vs, g0, g1, samples)
	res.info = append(res.info, fmt.Sprintf("samples: %d TrainBatch calls of %d over %v; final loss %.4f; held-out accuracy %.4f on %d",
		steps, trainBatch, elapsed.Round(time.Millisecond), losses[len(losses)-1], acc, len(data.holdY)))
	return res, nil
}

// holdoutAccuracy classifies the held-out split.
func holdoutAccuracy(g *core.Graph, data trainData) (float64, error) {
	classes, err := g.PredictBatch(nil, data.holdX, len(data.holdY))
	if err != nil {
		return 0, err
	}
	right := 0
	for i, c := range classes {
		if c == data.holdY[i] {
			right++
		}
	}
	return float64(right) / float64(len(classes)), nil
}

// checkTraining requires every loss finite and held-out accuracy at or
// above floor.
func checkTraining(losses []float64, acc, floor float64) error {
	if len(losses) == 0 {
		return fmt.Errorf("%w: no training step ran", errGate)
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("%w: loss of step %d is %v", errGate, i, l)
		}
	}
	if !(acc >= floor) {
		return fmt.Errorf("%w: held-out accuracy %.4f below floor %.2f", errGate, acc, floor)
	}
	return nil
}

// minCalls is how many calls a measured closed loop makes at least, on
// however slow a host: enough for a p99 with ten calls beyond it. Smoke
// runs need none.
func minCalls(cfg runConfig) int {
	if cfg.smoke {
		return 0
	}
	return windowMax
}
