package trident

// The benchmark harness: one Benchmark per paper table and figure (each
// regenerates the artifact end to end), micro-benchmarks on the
// simulator's hot paths, and BenchmarkTrajectory, which reaches every case
// of the gated benchmark trajectory. Run with:
//
//	go test -bench=. -benchmem
//
// and compare the printed artifacts against EXPERIMENTS.md.

import (
	"math/rand"
	"testing"

	"trident/internal/accel"
	"trident/internal/benchio"
	"trident/internal/core"
	"trident/internal/dataflow"
	"trident/internal/dataset"
	"trident/internal/device"
	"trident/internal/eventsim"
	"trident/internal/experiments"
	"trident/internal/models"
	"trident/internal/mrr"
	"trident/internal/pcm"
	"trident/internal/tensor"
	"trident/internal/train"
)

// BenchmarkTableI_TuningMethods regenerates Table I (device constants) and
// times one programming event of each tuner mechanism.
func BenchmarkTableI_TuningMethods(b *testing.B) {
	b.ReportAllocs()
	thermal := mrr.NewThermalTuner()
	gst, err := mrr.NewPCMTuner()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := rng.Float64()*2 - 1
		if _, _, err := thermal.Set(w, 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := gst.Set(w, 0); err != nil {
			b.Fatal(err)
		}
		_ = experiments.TableI()
	}
}

// BenchmarkTableIV_TOPS regenerates the accelerator comparison, including
// the first-principles Trident TOPS computation.
func BenchmarkTableIV_TOPS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.TableIVData()
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTableV_TrainingTime regenerates the 50,000-image training-time
// estimates (four full dataflow mappings per iteration).
func BenchmarkTableV_TrainingTime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableVData()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFigure3_ActivationCurve samples the GST activation transfer
// function.
func BenchmarkFigure3_ActivationCurve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure3(256)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Series[0].X) != 256 {
			b.Fatal("bad curve")
		}
	}
}

// BenchmarkFigure4_PhotonicEnergy regenerates the 5-model × 4-accelerator
// energy comparison.
func BenchmarkFigure4_PhotonicEnergy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4Data()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 20 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFigure5_Area regenerates the chip-area breakdown.
func BenchmarkFigure5_Area(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := experiments.Figure5()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTrajectory runs each case of the benchmark trajectory (the
// Table III and Figure 6 regenerations, the bank-kernel sweep, and the
// training, serving, routing and pipelining pairs) as a sub-benchmark named
// by its trajectory key, e.g. -bench 'Trajectory/BankMVM$/64x64'.
// `trident bench` times the same cases and gates their speedups.
func BenchmarkTrajectory(b *testing.B) {
	for _, c := range benchio.Suite {
		b.Run(c.Name, c.Run)
	}
}

// --- micro-benchmarks on simulator hot paths ---

// BenchmarkOpticalMVM times one 16×16 optical matrix-vector pass through a
// programmed PCM weight bank (with crosstalk, without noise).
func BenchmarkOpticalMVM(b *testing.B) {
	b.ReportAllocs()
	pe, err := core.NewPE(core.PEConfig{DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	w := make([][]float64, 16)
	rng := rand.New(rand.NewSource(2))
	for j := range w {
		w[j] = make([]float64, 16)
		for i := range w[j] {
			w[j][i] = rng.Float64()*2 - 1
		}
	}
	if err := pe.Program(w); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()
	}
	out := make([]float64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pe.MVMPassInto(out, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPEProgram times reprogramming a full 256-cell weight bank.
func BenchmarkPEProgram(b *testing.B) {
	b.ReportAllocs()
	pe, err := core.NewPE(core.PEConfig{DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	w := make([][]float64, 16)
	for j := range w {
		w[j] = make([]float64, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range w {
			for k := range w[j] {
				w[j][k] = rng.Float64()*2 - 1
			}
		}
		if err := pe.Program(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInSituTrainStep times one full hardware training step (forward,
// gradient-vector, outer-product, update, reprogram) on a 6→16→3 network.
func BenchmarkInSituTrainStep(b *testing.B) {
	b.ReportAllocs()
	net, err := core.NewNetwork(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.05,
	},
		core.LayerSpec{In: 6, Out: 16, Activate: true},
		core.LayerSpec{In: 16, Out: 3},
	)
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.5, -0.3, 0.8, 0.1, -0.7, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainSample(x, i%3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGSTProgram times one phase-change cell write.
func BenchmarkGSTProgram(b *testing.B) {
	b.ReportAllocs()
	cell, err := pcm.NewCell(pcm.CellConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.Program(i%device.GSTLevels, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataflowMapResNet50 times a full weight-stationary mapping of
// ResNet-50 onto the 44-PE array.
func BenchmarkDataflowMapResNet50(b *testing.B) {
	b.ReportAllocs()
	m := models.ResNet50()
	g := dataflow.Geometry{PEs: device.TridentPEs, Rows: 16, Cols: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataflow.Map(m, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConv2DIm2col times the im2col convolution on a mid-network
// ResNet-shaped layer.
func BenchmarkConv2DIm2col(b *testing.B) {
	b.ReportAllocs()
	s := tensor.Conv2DSpec{InC: 64, InH: 28, InW: 28, OutC: 64, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	in := tensor.New(s.InC, s.InH, s.InW)
	k := tensor.New(s.OutC, s.InC*s.KH*s.KW)
	rng := rand.New(rand.NewSource(4))
	for i := range in.Data() {
		in.Data()[i] = rng.NormFloat64()
	}
	for i := range k.Data() {
		k.Data()[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.Conv2D(in, k, s)
		if out.Len() == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkMatMul times the parallel GEMM on a 256×256 product.
func BenchmarkMatMul(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	a := tensor.New(256, 256)
	c := tensor.New(256, 256)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
		c.Data()[i] = rng.NormFloat64()
	}
	dst := tensor.New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, a, c)
	}
}

// BenchmarkEvaluateAllAccelerators times one full seven-accelerator,
// five-model evaluation sweep (the whole evaluation section in one call).
func BenchmarkEvaluateAllAccelerators(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range models.All() {
			for _, c := range append([]accel.PhotonicConfig{accel.Trident()}, accel.PhotonicBaselines()...) {
				if _, err := accel.EvaluatePhotonic(c, m); err != nil {
					b.Fatal(err)
				}
			}
			for _, e := range accel.ElectronicBaselines() {
				if _, err := accel.EvaluateElectronic(e, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkInSituEpoch times a full in-situ training epoch on synthetic
// blobs (150 samples through the hardware model).
func BenchmarkInSituEpoch(b *testing.B) {
	b.ReportAllocs()
	data := dataset.Blobs(150, 3, 6, 0.1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.RunInSitu(data, 16, 1, 0.08, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStudy regenerates the design-choice ablation table
// (Trident vs its -ADC / -Volatile / -SlowTune variants).
func BenchmarkAblationStudy(b *testing.B) {
	b.ReportAllocs()
	m := models.ResNet50()
	for i := 0; i < b.N; i++ {
		rows, err := accel.AblationStudy(m)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkHardwareCNNTrainStep times one in-situ training step of the
// functional convolutional classifier (per-pixel optical passes and
// hardware outer products on an 8×8 image).
func BenchmarkHardwareCNNTrainStep(b *testing.B) {
	b.ReportAllocs()
	cnn, err := core.NewCNN(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.1,
	}, tensor.Conv2DSpec{InC: 1, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}, 2)
	if err != nil {
		b.Fatal(err)
	}
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = 0.3 * float64(i%5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cnn.TrainSample(img, i%2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBankGeometryDSE regenerates the weight-bank design-space
// exploration (25 geometries, each fully re-provisioned and mapped).
func BenchmarkBankGeometryDSE(b *testing.B) {
	b.ReportAllocs()
	m := models.ResNet50()
	for i := 0; i < b.N; i++ {
		pts, err := accel.ExploreBankGeometry(m, device.PowerBudget)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 25 {
			b.Fatal("bad point count")
		}
	}
}

// BenchmarkEventSimSerial times the discrete-event validation schedule of
// ResNet-50 on the 44-PE array.
func BenchmarkEventSimSerial(b *testing.B) {
	b.ReportAllocs()
	m := models.ResNet50()
	cfg := accel.Trident()
	for i := 0; i < b.N; i++ {
		r, err := eventsim.Simulate(m, cfg, eventsim.Serial, accel.DefaultBatch)
		if err != nil {
			b.Fatal(err)
		}
		if r.Latency <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkDeepCNNTrainStep times one in-situ training step through two
// stacked hardware convolution stages (per-pixel transpose and
// outer-product passes at every stage).
func BenchmarkDeepCNNTrainStep(b *testing.B) {
	b.ReportAllocs()
	d, err := core.NewDeepCNN(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.1,
	}, []tensor.Conv2DSpec{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
		{InC: 4, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3,
			StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	img := tensor.New(1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = 0.2 * float64(i%7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.TrainSample(img, i%2); err != nil {
			b.Fatal(err)
		}
	}
}
