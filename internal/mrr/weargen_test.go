package mrr

import (
	"math/rand"
	"testing"

	"trident/internal/units"
)

// totalWrites sums every tuner's lifetime write count.
func totalWrites(b *WeightBank) uint64 {
	var n uint64
	for r := 0; r < b.Rows(); r++ {
		for c := 0; c < b.Cols(); c++ {
			n += b.PhysicalTuner(r, c).Writes()
		}
	}
	return n
}

// TestWearGenTracksWritesAndBudgets pins when the wear generation moves: by
// exactly one per landed write pulse and one per budget change, and never
// for an elided Program, a write refused on exhausted endurance, drift,
// masking, rotation or a weight override. The epoch is checked alongside to
// show the two counters are kept apart on purpose.
func TestWearGenTracksWritesAndBudgets(t *testing.T) {
	const width = 8
	const year = 365 * 24 * 3600 * units.Second
	rng := rand.New(rand.NewSource(51))
	b := wideBank(t, rng, width)
	budgets := uint64(0)
	check := func(step string) {
		t.Helper()
		if want := totalWrites(b) + budgets; b.WearGen() != want {
			t.Fatalf("%s: WearGen %d, want writes+budget changes = %d", step, b.WearGen(), want)
		}
	}
	check("initial program")
	if b.WearGen() == 0 {
		t.Fatal("initial program landed no pulses")
	}

	// Every mutation below leaves write counts and budgets alone.
	unchanged := func(step string, mutate func(), epochMoves bool) {
		t.Helper()
		gen, epoch := b.WearGen(), b.Epoch()
		mutate()
		if b.WearGen() != gen {
			t.Fatalf("%s moved WearGen %d→%d", step, gen, b.WearGen())
		}
		if moved := b.Epoch() != epoch; moved != epochMoves {
			t.Fatalf("%s: epoch moved = %v, want %v", step, moved, epochMoves)
		}
	}
	same := make([][]float64, width)
	for j := range same {
		same[j] = make([]float64, width)
		for i := range same[j] {
			same[j][i] = b.Weight(j, i)
		}
	}
	unchanged("elided Program", func() {
		res, err := b.Program(same, units.Second)
		if err != nil || res.CellsWritten != 0 {
			t.Fatalf("re-issuing realized weights wrote %d cells (err %v)", res.CellsWritten, err)
		}
	}, false)
	unchanged("ApplyDrift", func() { b.ApplyDrift(year) }, true)
	unchanged("MaskPhysicalRow", func() { b.MaskPhysicalRow(2) }, true)
	unchanged("RotateRows", func() { b.RotateRows(1) }, true)
	unchanged("OverridePhysicalWeight", func() { b.OverridePhysicalWeight(5, 5, 0.3) }, true)

	// Refresh lands a pulse on every displaced live cell.
	gen := b.WearGen()
	res := b.Refresh(2 * units.Second)
	var err error
	if res.CellsWritten == 0 {
		t.Fatal("refresh after a year of drift landed no pulses")
	}
	if got := b.WearGen() - gen; got != uint64(res.CellsWritten) {
		t.Fatalf("refresh landed %d pulses but moved WearGen by %d", res.CellsWritten, got)
	}
	check("refresh")

	// A Program that changes values moves it by exactly the landed pulses.
	w := [][]float64{{0.5, -0.5, 0.25}}
	gen = b.WearGen()
	if res, err = b.Program(w, 3*units.Second); err != nil || res.CellsWritten == 0 {
		t.Fatalf("program of new values wrote %d cells (err %v)", res.CellsWritten, err)
	}
	if got := b.WearGen() - gen; got != uint64(res.CellsWritten) {
		t.Fatalf("program landed %d pulses but moved WearGen by %d", res.CellsWritten, got)
	}
	check("program")

	// A budget change moves it by one and leaves the epoch alone.
	pr := b.PhysicalRow(0)
	writes := float64(b.PhysicalTuner(pr, 0).Writes())
	gen, epoch := b.WearGen(), b.Epoch()
	if !b.SetPhysicalEnduranceLimit(pr, 0, writes) {
		t.Fatal("SetPhysicalEnduranceLimit refused a PCM cell")
	}
	budgets++
	if b.WearGen() != gen+1 || b.Epoch() != epoch {
		t.Fatalf("budget change: WearGen %d→%d (want +1), epoch %d→%d (want unchanged)",
			gen, b.WearGen(), epoch, b.Epoch())
	}
	check("budget")

	// The exhausted cell refuses the next write, and a refused write is not wear.
	unchanged("worn-out write", func() {
		res, err := b.Program([][]float64{{-0.75}}, 4*units.Second)
		if err != nil || len(res.Worn) != 1 || res.CellsWritten != 0 {
			t.Fatalf("write to exhausted cell: %+v, err %v", res, err)
		}
	}, false)
	check("worn-out write")
}

// TestSetPhysicalEnduranceLimitNonPCM: banks without GST cells have no
// endurance budget to set, so the setter refuses and wear stays put.
func TestSetPhysicalEnduranceLimitNonPCM(t *testing.T) {
	b, err := NewThermalWeightBank(4, 4, testPlan(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	gen := b.WearGen()
	if b.SetPhysicalEnduranceLimit(1, 1, 10) {
		t.Fatal("thermal bank accepted an endurance budget")
	}
	if b.WearGen() != gen {
		t.Fatal("refused budget change moved WearGen")
	}
}
