package core

import (
	"math/rand"
	"slices"
	"testing"
)

// flattenAllWeights snapshots every layer's master weight matrix in layer
// order, flattened row-major, for bitwise comparison.
func flattenAllWeights(g *Graph) []float64 {
	var out []float64
	for _, l := range g.Layers() {
		for _, row := range l.Weights() {
			out = append(out, row...)
		}
	}
	return out
}

// totalTunerWrites sums the programming-write counters of every physical
// cell in the graph — the wear currency the endurance model charges.
func totalTunerWrites(g *Graph) uint64 {
	var total uint64
	for _, l := range g.Layers() {
		for _, row := range l.Tiles() {
			for _, pe := range row {
				b := pe.Bank()
				for r := 0; r < pe.Rows(); r++ {
					for c := 0; c < pe.Cols(); c++ {
						total += b.PhysicalTuner(r, c).Writes()
					}
				}
			}
		}
	}
	return total
}

// directWTDelta computes the exact mathematical Wᵀ·δ from the master
// weight matrix.
func directWTDelta(w [][]float64, delta []float64, in int) []float64 {
	out := make([]float64, in)
	for j, row := range w {
		d := delta[j]
		for i := 0; i < in; i++ {
			out[i] += d * row[i]
		}
	}
	return out
}

// TestSingleSampleCallsRejectWrongLength pins what Forward, Predict and
// TrainSample add over the batch paths they delegate to: the batch paths
// accept any slab at least batch×size long, but a single-sample call must
// carry exactly one input vector. Short, long, doubled and empty inputs
// must error and leave the weights and the energy ledger untouched.
func TestSingleSampleCallsRejectWrongLength(t *testing.T) {
	net, _ := twinNetworks(t)
	g := net.Graph
	size := g.InputSize()
	calls := map[string]func(x []float64) error{
		"Forward": func(x []float64) error {
			_, err := g.Forward(x)
			return err
		},
		"Predict": func(x []float64) error {
			_, err := g.Predict(x)
			return err
		},
		"TrainSample": func(x []float64) error {
			_, err := g.TrainSample(x, 1)
			return err
		},
	}
	weights, ledger := flattenAllWeights(g), g.Ledger()
	for _, n := range []int{size - 1, size + 1, 2 * size, 0} {
		x := make([]float64, n)
		for i := range x {
			x[i] = 0.5
		}
		for name, call := range calls {
			if err := call(x); err == nil {
				t.Errorf("%s accepted a %d-element input (want %d)", name, n, size)
			}
		}
	}
	after := flattenAllWeights(g)
	for i := range weights {
		if after[i] != weights[i] {
			t.Fatalf("weight[%d] changed by a rejected call: %v -> %v", i, weights[i], after[i])
		}
	}
	requireSameLedger(t, ledger, g.Ledger())

	// The exact length is accepted, and a training step does move the
	// weights: the comparison above can see a change.
	x := make([]float64, size)
	for name, call := range calls {
		if err := call(x); err != nil {
			t.Errorf("%s rejected a %d-element input: %v", name, size, err)
		}
	}
	if after := flattenAllWeights(g); slices.Equal(after, weights) {
		t.Error("TrainSample left every weight unchanged")
	}
}

// TestTrainBatchDeterministicAcrossWorkers: a batched training schedule on
// the deep CNN — full noise model on, conv stages, GAP and dense head — must
// produce bit-identical losses and weights at any worker count: every
// fan-out in the batched forward, transpose GEMM, col2im and gradient
// contraction owns disjoint output blocks or merges in fixed tile order.
func TestTrainBatchDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]float64, []float64) {
		prev := SetMaxWorkers(workers)
		defer SetMaxWorkers(prev)
		d, err := NewDeepCNN(NetworkConfig{
			PE:           PEConfig{Rows: 8, Cols: 8},
			LearningRate: 0.05,
		}, deepSpecs(), 2)
		if err != nil {
			t.Fatal(err)
		}
		const batch = 4
		labels := []int{0, 1, 1, 0}
		xs := make([]float64, batch*64)
		var losses []float64
		for step := 0; step < 4; step++ {
			for s := 0; s < batch; s++ {
				copy(xs[s*64:(s+1)*64], testImage(int64(31+step*batch+s)).Data())
			}
			loss, err := d.Graph.TrainBatch(xs, labels)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		return losses, flattenAllWeights(d.Graph)
	}
	lossRef, wRef := run(1)
	for _, workers := range []int{2, 8} {
		losses, weights := run(workers)
		for i := range lossRef {
			if losses[i] != lossRef[i] {
				t.Fatalf("workers=%d loss[%d]: %v, serial %v", workers, i, losses[i], lossRef[i])
			}
		}
		for i := range wRef {
			if weights[i] != wRef[i] {
				t.Fatalf("workers=%d weight[%d]: %v, serial %v", workers, i, weights[i], wRef[i])
			}
		}
	}
}

// TestTransposeBatchMatchesSingle: the batched transpose GEMM must
// reproduce per-delta batch-of-one transpose passes bit-exactly with the full noise
// model on — same outputs, same noise stream, same energy and time.
func TestTransposeBatchMatchesSingle(t *testing.T) {
	a, b := twinNetworks(t)
	la, lb := a.Layers()[0], b.Layers()[0] // 12 → 16
	const batch, out, in = 4, 16, 12
	ds := batchInputs(t, 21, batch, out)
	got, err := lb.TransposeMVMBatchInto(nil, ds, batch)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < batch; s++ {
		want, err := la.TransposeMVMBatchInto(nil, ds[s*out:(s+1)*out], 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[s*in+i] != want[i] {
				t.Fatalf("sample %d out[%d]: batched %v, single %v", s, i, got[s*in+i], want[i])
			}
		}
	}
	requireSameLedger(t, a.Ledger(), b.Ledger())
}

// TestTransposeRaggedTileShapes pins the compiled transpose path against
// the exact mathematical Wᵀ·δ on ragged and non-square tile geometries —
// partial edge tiles on both axes, rectangular banks, and a single
// oversized tile — at bank sizes 16/64/256. With ideal banks and noise off
// the compiled view is the exact adjoint of the forward operator, so the
// only daylight allowed is partial-sum re-association (≤ 1e-12 relative).
func TestTransposeRaggedTileShapes(t *testing.T) {
	cases := []struct{ rows, cols, in, out int }{
		{16, 16, 50, 37},   // partial edge tiles on both axes
		{32, 16, 100, 70},  // non-square bank
		{64, 32, 64, 24},   // exact fit on the input axis only
		{256, 36, 130, 90}, // row dimension larger than the layer
	}
	for _, tc := range cases {
		cfg := NetworkConfig{
			PE:           PEConfig{Rows: tc.rows, Cols: tc.cols, DisableNoise: true, Ideal: true},
			LearningRate: 0.05,
		}
		net, err := NewNetwork(cfg, LayerSpec{In: tc.in, Out: tc.out})
		if err != nil {
			t.Fatal(err)
		}
		l := net.Layers()[0]
		rng := rand.New(rand.NewSource(int64(tc.rows*1000 + tc.in)))
		delta := make([]float64, tc.out)
		for i := range delta {
			delta[i] = rng.Float64()*2 - 1
		}
		want := directWTDelta(l.Weights(), delta, tc.in)
		got, err := l.TransposeMVMBatchInto(nil, delta, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "compiled Wᵀδ", got, want)

		// The batched kernel over the same geometry, three deltas at once.
		const batch = 3
		ds := make([]float64, batch*tc.out)
		for i := range ds {
			ds[i] = rng.Float64()*2 - 1
		}
		bout, err := l.TransposeMVMBatchInto(nil, ds, batch)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < batch; s++ {
			want := directWTDelta(l.Weights(), ds[s*tc.out:(s+1)*tc.out], tc.in)
			assertClose(t, "compiled batch Wᵀδ", bout[s*tc.in:(s+1)*tc.in], want)
		}
	}
}

// TestCompiledTransposeMatchesReference: with noise off, the layer's
// compiled transpose pass equals the per-tile sum of the banks' direct
// stored-weight adjoint (mrr ReferenceTransposeMVM) to 1e-12 — with and
// without inter-channel crosstalk — and, on ideal banks, the exact Wᵀ·δ.
func TestCompiledTransposeMatchesReference(t *testing.T) {
	for _, ideal := range []bool{true, false} {
		cfg := NetworkConfig{
			PE:           PEConfig{Rows: 16, Cols: 16, DisableNoise: true, Ideal: ideal},
			LearningRate: 0.05,
		}
		net, err := NewNetwork(cfg, LayerSpec{In: 40, Out: 24})
		if err != nil {
			t.Fatal(err)
		}
		l := net.Layers()[0]
		rng := rand.New(rand.NewSource(99))
		delta := make([]float64, 24)
		for i := range delta {
			delta[i] = rng.Float64()*2 - 1
		}
		compiled, err := l.TransposeMVMBatchInto(nil, delta, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]float64, 40)
		rows, cols := l.TileDims()
		for r, row := range l.Tiles() {
			for c, pe := range row {
				j0, i0 := r*rows, c*cols
				part := pe.Bank().ReferenceTransposeMVM(nil, delta[j0:min(j0+rows, 24)])
				for i := i0; i < min(i0+cols, 40); i++ {
					ref[i] += part[i-i0]
				}
			}
		}
		assertClose(t, "compiled vs reference Wᵀδ", compiled, ref)
		if ideal {
			assertClose(t, "compiled vs direct Wᵀδ", compiled, directWTDelta(l.Weights(), delta, 40))
		}
	}
}

// TestBackwardZeroProgrammingWrites is the wear contract of the compiled
// backward path: once the banks hold the current weights, a whole training
// step — forward on the resident banks, transpose GEMMs, col2im, outer
// products, weight update — issues ZERO programming writes to the GST
// cells. The only endurance traffic left in training is the post-update
// forward recompile, which the update defers to the next pass.
func TestBackwardZeroProgrammingWrites(t *testing.T) {
	d := quietDeepCNN(t, 2, 0.05)
	g := d.Graph
	for step := 0; step < 6; step++ {
		// Program the previous step's update first, so the writes measured
		// below are this step's own.
		for _, l := range g.Layers() {
			if err := l.EnsureForward(); err != nil {
				t.Fatal(err)
			}
		}
		before := totalTunerWrites(g)
		if _, err := g.TrainSample(testImage(int64(step)).Data(), step%2); err != nil {
			t.Fatal(err)
		}
		if after := totalTunerWrites(g); after != before {
			t.Fatalf("step %d: training step issued %d programming writes, want 0", step, after-before)
		}
	}

	// A whole minibatch step on freshly-programmed banks writes nothing at
	// all: the batched forward reuses the resident weights and the backward
	// is reprogram-free. (The update defers its recompile to the next
	// forward, which is where the epoch's only writes happen.)
	if _, err := g.Forward(testImage(100).Data()); err != nil {
		t.Fatal(err)
	}
	before := totalTunerWrites(g)
	const batch = 3
	xs := make([]float64, batch*64)
	for s := 0; s < batch; s++ {
		copy(xs[s*64:(s+1)*64], testImage(int64(200+s)).Data())
	}
	if _, err := g.TrainBatch(xs, []int{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if after := totalTunerWrites(g); after != before {
		t.Fatalf("TrainBatch issued %d programming writes, want 0", after-before)
	}
}

// TestStaleTrainStateGuard: single-sample training is a batch of one and
// keeps its own sample-major training state, so serving calls in between
// cannot leak stale activations into it. A TrainSample after ForwardBatch,
// PredictBatch and a pipelined batch must be the same step, bit for bit, as
// on a fresh twin that served nothing (noise off, so serving draws no
// randomness the twin would not).
func TestStaleTrainStateGuard(t *testing.T) {
	served, fresh := quietDeepCNN(t, 2, 0.05), quietDeepCNN(t, 2, 0.05)
	const batch = 3
	xs := make([]float64, batch*64)
	for s := 0; s < batch; s++ {
		copy(xs[s*64:(s+1)*64], testImage(int64(300+s)).Data())
	}
	p, err := NewPipeline(served.Graph, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		if _, err := served.ForwardBatch(xs, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := served.PredictBatch(nil, xs, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ForwardBatchPipelined(nil, xs, batch); err != nil {
			t.Fatal(err)
		}
		x := testImage(int64(step)).Data()
		got, err := served.Graph.TrainSample(x, step%2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Graph.TrainSample(x, step%2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d: loss after serving %v, fresh twin %v", step, got, want)
		}
		gw, ww := flattenAllWeights(served.Graph), flattenAllWeights(fresh.Graph)
		for i := range ww {
			if gw[i] != ww[i] {
				t.Fatalf("step %d weight[%d]: after serving %v, fresh twin %v", step, i, gw[i], ww[i])
			}
		}
	}
}
