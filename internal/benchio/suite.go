package benchio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/experiments"
	"trident/internal/mrr"
	"trident/internal/optics"
	"trident/internal/serve"
	"trident/internal/tensor"
)

// Case is one trajectory benchmark: Name is its key in the trajectory file
// and Run the body, which builds its own fixtures so every case starts
// from a fresh bank, network or server.
type Case struct {
	Name string
	Run  func(b *testing.B)
}

// Gates is the trajectory's speedup requirements, applied in this order.
// Each compares the ns/op of two cases of Suite; MinProcs marks the
// parallelism gates, waived on hosts with fewer logical CPUs.
//
//   - the factored crosstalk kernel ≥2× the reference triple loop (64×64);
//   - the compiled batch kernel ≥1.5× the factored batch kernel (256×256);
//   - the incremental dirty-row recompile ≥5× a full snapshot rebuild;
//   - the pool-parallel batch GEMM ≥1.5× the single-threaded batch;
//   - micro-batched serving ≥1.2× single-request dispatch in req/sec;
//   - one TrainBatch of 32 ≥2× 32 sequential TrainSample steps (256×256);
//   - two routed replicas ≥1.3× one under maintenance churn;
//   - 4-stage pipelined DeepCNN batches ≥1.4× the sequential batched path.
var Gates = []Gate{
	{Fast: "BenchmarkBankMVMFactored/64x64", Ref: "BenchmarkBankMVMReference/64x64", Required: 2},
	{Fast: "BenchmarkBankMVMBatch/256x256", Ref: "BenchmarkBankMVMBatchFactored/256x256", Required: 1.5},
	{Fast: "BenchmarkBankRecompileIncremental/256x256", Ref: "BenchmarkBankRecompileFull/256x256", Required: 5},
	{Fast: "BenchmarkBankMVMBatchParallel/256x256", Ref: "BenchmarkBankMVMBatch/256x256", Required: 1.5, MinProcs: 2},
	{Fast: "BenchmarkServeBatcher", Ref: "BenchmarkServeUnbatched", Required: 1.2},
	{Fast: "BenchmarkTrainBatch/256x256", Ref: "BenchmarkTrainStep/256x256", Required: 2},
	{Fast: "BenchmarkRouterTwoReplicas", Ref: "BenchmarkRouterOneReplica", Required: 1.3, MinProcs: 2},
	{Fast: "BenchmarkDeepCNNBatchPipelined", Ref: "BenchmarkDeepCNNBatchSequential", Required: 1.4, MinProcs: 4},
}

// Suite is the benchmark trajectory in file order: two regenerating paper
// tables, the training pair, the bank-kernel sweep, the serving and
// routed-replica pairs and the pipelined-execution pair.
var Suite = suite()

// bankSizes are the square bank geometries the kernel cases sweep: the
// paper's 16×16 PE bank plus 64- and 256-column stress widths on the
// extended (multi-comb) channel plan.
var bankSizes = []int{16, 64, 256}

func suite() []Case {
	cases := []Case{
		{"BenchmarkTableIII_PowerBreakdown", benchTableIII},
		{"BenchmarkFigure6_InferencesPerSecond", benchFigure6},
		{"BenchmarkTrainStep/256x256", func(b *testing.B) { benchTrain(b, false) }},
		{"BenchmarkTrainBatch/256x256", func(b *testing.B) { benchTrain(b, true) }},
	}
	bank := []struct {
		name string
		run  func(b *testing.B, size int)
	}{
		{"BenchmarkTransposeCompiled", benchTranspose},
		{"BenchmarkBankMVM", benchGEMV((*mrr.WeightBank).MVM)},
		{"BenchmarkBankMVMCompiled", benchGEMV((*mrr.WeightBank).CompiledMVM)},
		{"BenchmarkBankMVMFactored", benchGEMV((*mrr.WeightBank).FactoredMVM)},
		{"BenchmarkBankMVMReference", benchGEMV((*mrr.WeightBank).ReferenceMVM)},
		{"BenchmarkBankMVMBatch", benchGEMM((*mrr.WeightBank).MVMBatchInto, false)},
		{"BenchmarkBankMVMBatchFactored", benchGEMM((*mrr.WeightBank).FactoredMVMBatchInto, false)},
		{"BenchmarkBankRecompileFull", benchRecompileFull},
		{"BenchmarkBankRecompileIncremental", benchRecompileIncremental},
		{"BenchmarkBankMVMBatchParallel", benchGEMM((*mrr.WeightBank).MVMBatchInto, true)},
		{"BenchmarkBankProgram", benchProgram},
	}
	for _, k := range bank {
		for _, size := range bankSizes {
			cases = append(cases, Case{fmt.Sprintf("%s/%dx%d", k.name, size, size),
				func(b *testing.B) { k.run(b, size) }})
		}
	}
	serveCfg := serve.Config{MaxBatch: 16, MaxWait: 100 * time.Microsecond, QueueCap: 64}
	unbatchedCfg := serveCfg
	unbatchedCfg.MaxBatch = 1
	return append(cases,
		Case{"BenchmarkServeBatcher", func(b *testing.B) { benchServe(b, serveCfg) }},
		Case{"BenchmarkServeUnbatched", func(b *testing.B) { benchServe(b, unbatchedCfg) }},
		Case{"BenchmarkRouterOneReplica", func(b *testing.B) { benchRouter(b, 1) }},
		Case{"BenchmarkRouterTwoReplicas", func(b *testing.B) { benchRouter(b, 2) }},
		Case{"BenchmarkDeepCNNBatchSequential", func(b *testing.B) { benchDeepCNNBatch(b, false) }},
		Case{"BenchmarkDeepCNNBatchPipelined", func(b *testing.B) { benchDeepCNNBatch(b, true) }},
	)
}

// benchTableIII regenerates the PE power table.
func benchTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := experiments.TableIII(); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchFigure6 regenerates the 5-model × 7-accelerator throughput
// comparison.
func benchFigure6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6Data()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 35 {
			b.Fatal("bad row count")
		}
	}
}

// trainBatch is the minibatch size of the training pair: both sides
// process exactly trainBatch samples per op, so their ns/op ratio is a
// per-sample speedup.
const trainBatch = 32

// benchTrain drives trainBatch samples per op through a 256→256→3 network
// on 32×32 banks (an 8×8 tile grid on the wide layer). batched=false times
// 32 sequential TrainSample steps, each a TrainBatch of one that pays
// forward, backward and the post-update bank reprogram; batched=true times
// one TrainBatch of all 32: one batched forward on resident weights,
// reprogram-free batched transpose GEMMs, one blocked ΔHᵀ·X contraction and
// one weight update per layer.
func benchTrain(b *testing.B, batched bool) {
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 32, Cols: 32, DisableNoise: true},
		LearningRate: 0.05,
	},
		core.LayerSpec{In: 256, Out: 256, Activate: true},
		core.LayerSpec{In: 256, Out: 3},
	)
	if err != nil {
		b.Fatal(err)
	}
	xs := benchInput(trainBatch*256, 5)
	labels := make([]int, trainBatch)
	for s := range labels {
		labels[s] = s % 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			if _, err := net.TrainBatch(xs, labels); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for s := 0; s < trainBatch; s++ {
			if _, err := net.TrainSample(xs[s*256:(s+1)*256], labels[s]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)*trainBatch/b.Elapsed().Seconds(), "samples/sec")
}

// benchBank builds a programmed size×size PCM bank for the kernel cases.
func benchBank(b *testing.B, size int) *mrr.WeightBank {
	b.Helper()
	plan, err := optics.NewExtendedChannelPlan(size)
	if err != nil {
		b.Fatal(err)
	}
	bank, err := mrr.NewPCMWeightBank(size, size, plan)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(size)))
	w := make([][]float64, size)
	for j := range w {
		w[j] = make([]float64, size)
		for i := range w[j] {
			w[j][i] = rng.Float64()*2 - 1
		}
	}
	if _, err := bank.Program(w, 0); err != nil {
		b.Fatal(err)
	}
	return bank
}

func benchInput(size int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, size)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// benchGEMV times one single-vector bank kernel: MVM (the production path,
// served from the compiled-snapshot GEMV), CompiledMVM (that kernel without
// MVM's argument handling), FactoredMVM (the numerator of the ≥2× gate) or
// ReferenceMVM (the triple loop, its denominator).
func benchGEMV(kernel func(bank *mrr.WeightBank, dst, x []float64) []float64) func(*testing.B, int) {
	return func(b *testing.B, size int) {
		bank := benchBank(b, size)
		x := benchInput(size, 9)
		dst := make([]float64, size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = kernel(bank, dst, x)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "MVMs/sec")
	}
}

// benchGEMM streams 32-sample batches through a batched bank kernel and
// reports per-sample throughput. parallel installs the tile engine's worker
// pool as the bank's ParallelFor hook, the configuration every PE-owned
// bank runs in production.
func benchGEMM(kernel func(bank *mrr.WeightBank, dst, xs []float64, batch, n int) []float64, parallel bool) func(*testing.B, int) {
	return func(b *testing.B, size int) {
		const batch = 32
		bank := benchBank(b, size)
		if parallel {
			bank.SetParallelFor(core.RunIndexed)
		}
		xs := benchInput(batch*size, 9)
		dst := make([]float64, batch*size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = kernel(bank, dst, xs, batch, size)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "MVMs/sec")
	}
}

// benchTranspose times the compiled transpose GEMV: the Wᵀ·δ backward pass
// served from the shared snapshot's transpose view with zero bank
// reprogramming.
func benchTranspose(b *testing.B, size int) {
	bank := benchBank(b, size)
	bank.EnsureTransposeCompiled()
	delta := benchInput(size, 11)
	dst := make([]float64, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = bank.TransposeMVM(dst, delta)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "MVMs/sec")
}

// benchRecompileFull times a whole-snapshot rebuild: RotateRows(0) is a
// pure whole-bank invalidation (the row map is unchanged, so every
// iteration recompiles an identical bank) and EnsureCompiled pays the full
// O(J·N·r) compile. ReportAllocs pins the zero-allocation contract on the
// reused weff buffer.
func benchRecompileFull(b *testing.B, size int) {
	bank := benchBank(b, size)
	bank.EnsureCompiled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.RotateRows(0)
		bank.EnsureCompiled()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recompiles/sec")
}

// benchRecompileIncremental times the dirty-row path: one cell override
// (alternating values so the mutation is never a no-op) dirties a single
// row, and EnsureCompiled recompiles just that row in place — the
// reliability scheduler's refresh-a-few-rows regime.
func benchRecompileIncremental(b *testing.B, size int) {
	bank := benchBank(b, size)
	bank.EnsureCompiled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 0.4321
		if i%2 == 1 {
			v = -v
		}
		bank.OverrideWeight(size/2, size/2, v)
		bank.EnsureCompiled()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recompiles/sec")
}

// benchProgram times full-bank reprogramming with two alternating weight
// sets, so the compare-first write logic cannot elide the writes.
func benchProgram(b *testing.B, size int) {
	bank := benchBank(b, size)
	sets := make([][][]float64, 2)
	rng := rand.New(rand.NewSource(77))
	for s := range sets {
		sets[s] = make([][]float64, size)
		for j := range sets[s] {
			sets[s][j] = make([]float64, size)
			for i := range sets[s][j] {
				sets[s][j][i] = rng.Float64()*2 - 1
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bank.Program(sets[i%2], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// serveClients is the fixed client count of the serving and routing pairs:
// a steady load under which the config under test decides whether requests
// coalesce.
const serveClients = 16

// serveBenchNet builds the serving workload: a wider MLP than the unit-test
// miniatures, so the batched forward path has real work to amortize
// per-request overhead against.
func serveBenchNet(b *testing.B) *core.Network {
	b.Helper()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.08,
	},
		core.LayerSpec{In: 32, Out: 64, Activate: true},
		core.LayerSpec{In: 64, Out: 8},
	)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// drive spreads b.N calls of submit over serveClients goroutines, each with
// its own fixed input, and reports requests/second.
func drive(b *testing.B, submit func(x []float64) error) {
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]float64, serveClients)
	for c := range inputs {
		x := make([]float64, 32)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		inputs[c] = x
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := submit(inputs[c]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// benchServe drives b.N requests through one serving batcher. With
// MaxBatch 16 up to 16 concurrent requests coalesce into one batched
// forward pass; MaxBatch 1 forces one request per engine pass through the
// same machinery, so the pair isolates what coalescing buys.
func benchServe(b *testing.B, cfg serve.Config) {
	bt := serve.NewBatcher(serveBenchNet(b).Graph, cfg)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := bt.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	drive(b, func(x []float64) error {
		_, err := bt.Submit(context.Background(), x)
		return err
	})
}

// benchRouter drives b.N routed requests through one model with the given
// replica count while a churn goroutine forces maintenance-style drains:
// round-robin over the replicas, it acquires each execute token, holds it
// ~1ms (a BIST-window stand-in using the exact drain path real maintenance
// takes), and releases. With one replica every hold stalls the model; with
// two the router shifts traffic to the warm sibling, so the pair isolates
// what replica fan-out buys under maintenance churn.
func benchRouter(b *testing.B, replicas int) {
	base := serveBenchNet(b)
	rt := serve.NewRouter()
	insts := make([]*serve.Instance, replicas)
	for i := range insts {
		rep, err := base.Replicate()
		if err != nil {
			b.Fatal(err)
		}
		inst, err := serve.NewGraphInstance(fmt.Sprintf("m/replica-%d", i), rep.Graph,
			serve.Config{MaxBatch: 16, MaxWait: 100 * time.Microsecond, QueueCap: 64}, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts[i] = inst
	}
	if err := rt.AddModel("m", insts...); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()

	churnCtx, stopChurn := context.WithCancel(context.Background())
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; churnCtx.Err() == nil; i++ {
			release, err := insts[i%len(insts)].Batcher().Acquire(churnCtx)
			if err != nil {
				return
			}
			select {
			case <-time.After(time.Millisecond):
			case <-churnCtx.Done():
			}
			release()
			select {
			case <-time.After(500 * time.Microsecond):
			case <-churnCtx.Done():
			}
		}
	}()
	defer func() { stopChurn(); <-churnDone }()

	drive(b, func(x []float64) error {
		// All replicas draining (the single-replica churn window) and
		// transient backpressure are retried, not failed: the case measures
		// end-to-end goodput under churn.
		for {
			_, err := rt.Submit(context.Background(), "m", x)
			if !errors.Is(err, serve.ErrAllDraining) && !errors.Is(err, serve.ErrQueueFull) {
				return err
			}
			time.Sleep(200 * time.Microsecond)
		}
	})
}

// pipeBatch is the per-op batch size of the pipelined-execution pair: both
// sides push exactly this many samples per op, so their ns/op ratio is the
// batch-throughput speedup of stage pipelining.
const pipeBatch = 64

// benchDeepCNNBatch streams pipeBatch-sample batches through a four-conv
// DeepCNN graph (input, four convs, GAP, dense; noise off, so the pair
// times the execution schedule, not the RNG). pipelined=false takes the
// sequential batched forward; pipelined=true cuts the graph into a balanced
// 4-stage pipeline, each stage on its own simulated chip, with micro-batches
// flowing through double-buffered boundaries so stage k computes
// micro-batch b while stage k+1 computes b−1.
func benchDeepCNNBatch(b *testing.B, pipelined bool) {
	d, err := core.NewDeepCNN(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.1,
	}, []tensor.Conv2DSpec{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 6, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
		{InC: 6, InH: 4, InW: 4, OutC: 8, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	forward := g.ForwardBatchInto
	if pipelined {
		cuts, err := dataflow.PlanStages(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.NewPipeline(g, cuts, 0)
		if err != nil {
			b.Fatal(err)
		}
		forward = p.ForwardBatchPipelined
	}
	xs := benchInput(pipeBatch*g.InputSize(), 13)
	var dst []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = forward(dst, xs, pipeBatch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*pipeBatch/b.Elapsed().Seconds(), "samples/sec")
}
