package core

import (
	"math"
	"math/rand"
	"testing"
)

// setEndurance overrides one physical cell's switching-endurance budget.
func setEndurance(pe *PE, row, col int, cycles float64) {
	pe.Bank().SetPhysicalEnduranceLimit(row, col, cycles)
}

// TestWearExhaustionSurfacesAsFaultNotError: when a cell's endurance runs
// out mid-write, Program must keep returning nil, record a stuck-crystalline
// wear fault, pin the dead cell at −1 and leave every healthy neighbour
// tracking the new weights.
func TestWearExhaustionSurfacesAsFaultNotError(t *testing.T) {
	pe, err := NewPE(PEConfig{Rows: 4, Cols: 4, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	setEndurance(pe, 0, 0, 3)
	block := func(v float64) [][]float64 {
		w := make([][]float64, pe.Rows())
		for j := range w {
			w[j] = make([]float64, pe.Cols())
			for i := range w[j] {
				w[j][i] = v
			}
		}
		return w
	}
	// Alternate between distinct levels so every pass issues real pulses.
	for k := 0; k < 6; k++ {
		v := 0.5
		if k%2 == 1 {
			v = -0.5
		}
		if err := pe.Program(block(v)); err != nil {
			t.Fatalf("pass %d: endurance exhaustion aborted programming: %v", k, err)
		}
	}
	if pe.FaultCount() != 1 {
		t.Fatalf("fault count %d after exhausting one cell, want 1", pe.FaultCount())
	}
	ev := pe.FaultEvents()[0]
	if ev.Cause != CauseWear || ev.Kind != StuckCrystalline || ev.Row != 0 || ev.Col != 0 {
		t.Fatalf("unexpected fault event %+v, want wear/stuck-crystalline at (0,0)", ev)
	}
	if got := pe.Bank().PhysicalWeight(0, 0); got != -1 {
		t.Fatalf("worn cell reads %v, want the stuck-crystalline extreme −1", got)
	}
	// The rest of the bank still follows programming.
	if err := pe.Program(block(0.25)); err != nil {
		t.Fatal(err)
	}
	if got := pe.Bank().PhysicalWeight(0, 0); got != -1 {
		t.Fatalf("worn cell moved to %v after a later program pass", got)
	}
	if got := pe.Bank().PhysicalWeight(1, 1); math.Abs(got-0.25) > 0.01 {
		t.Fatalf("healthy cell reads %v, want ≈0.25", got)
	}
}

// TestTrainingContinuesThroughEnduranceExhaustion: a whole training run on a
// network whose cells all carry tiny endurance budgets must complete without
// error while faults pile up in the ledger — endurance death degrades, it
// never aborts.
func TestTrainingContinuesThroughEnduranceExhaustion(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		PE:           PEConfig{Rows: 8, Cols: 8, DisableNoise: true},
		LearningRate: 0.08,
	},
		LayerSpec{In: 6, Out: 16, Activate: true},
		LayerSpec{In: 16, Out: 4})
	if err != nil {
		t.Fatal(err)
	}
	net.ForEachPE(func(_, _, _ int, pe *PE) {
		for r := 0; r < pe.Rows(); r++ {
			for c := 0; c < pe.Cols(); c++ {
				setEndurance(pe, r, c, 40)
			}
		}
	})
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 6)
	for s := 0; s < 120; s++ {
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		loss, err := net.TrainSample(x, s%4)
		if err != nil {
			t.Fatalf("step %d: training aborted on endurance exhaustion: %v", s, err)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v not finite", s, loss)
		}
	}
	if net.FaultCount() == 0 {
		t.Fatal("no wear faults emerged despite 40-cycle endurance budgets")
	}
	for _, ev := range net.FaultEvents() {
		if ev.Cause != CauseWear {
			t.Fatalf("unexpected non-wear fault in the ledger: %+v", ev)
		}
		if ev.Kind != StuckCrystalline {
			t.Fatalf("wear fault with kind %v, want stuck-crystalline", ev.Kind)
		}
	}
	// Inference still serves on the degraded part.
	if _, err := net.Forward(x); err != nil {
		t.Fatalf("forward pass on degraded network: %v", err)
	}
}

// runFaultedSchedule trains a noisy network while faults appear mid-run from
// both directions — explicit injection between samples and endurance
// exhaustion inside programming passes — and captures the full trace.
func runFaultedSchedule(t *testing.T, workers int) *netTrace {
	t.Helper()
	prev := SetMaxWorkers(workers)
	defer SetMaxWorkers(prev)
	net, err := NewNetwork(noisyCfg(),
		LayerSpec{In: 12, Out: 16, Activate: true},
		LayerSpec{In: 16, Out: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic per-position endurance budgets small enough that cells
	// start dying while the schedule is still training.
	net.ForEachPE(func(layer, tr, tc int, pe *PE) {
		for r := 0; r < pe.Rows(); r++ {
			for c := 0; c < pe.Cols(); c++ {
				setEndurance(pe, r, c, float64(20+((layer*31+tr*17+tc*13+r*7+c*3)%25)))
			}
		}
	})
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, 12)
	tr := &netTrace{}
	for s := 0; s < 8; s++ {
		// Pin fresh cells between parallel tile passes: the injection layout
		// is fixed, so serial and parallel schedules see identical faults.
		if s == 2 || s == 5 {
			pe := net.Layers()[s%2].Tiles()[0][0]
			if err := pe.InjectFault(s, s, StuckAmorphous); err != nil {
				t.Fatal(err)
			}
		}
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		loss, err := net.TrainSample(x, s%3)
		if err != nil {
			t.Fatal(err)
		}
		tr.losses = append(tr.losses, loss)
	}
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	tr.out = append(tr.out, out...)
	flattenWeights(tr, net.Layers()...)
	captureLedger(tr, net.Ledger())
	// Fold the fault ledger into the trace via the weights slice: the event
	// list must itself be deterministic across worker counts.
	for _, ev := range net.FaultEvents() {
		tr.weights = append(tr.weights,
			float64(ev.Layer), float64(ev.TileRow), float64(ev.TileCol),
			float64(ev.Row), float64(ev.Col),
			float64(ev.Kind), float64(ev.Cause), ev.At.Seconds())
	}
	return tr
}

// TestFaultedParallelMatchesSerial: with noise on, wear faults emerging
// mid-schedule and explicit faults injected between parallel tile passes,
// the parallel engine must still reproduce the serial run bit-exactly —
// losses, outputs, weights, energy and the fault ledger itself. Run under
// -race this also proves fault recording never races the tile workers.
func TestFaultedParallelMatchesSerial(t *testing.T) {
	serial := runFaultedSchedule(t, 1)
	parallel := runFaultedSchedule(t, 8)
	serial.requireEqual(t, parallel)
	if len(serial.losses) == 0 {
		t.Fatal("schedule trained no samples")
	}
}
