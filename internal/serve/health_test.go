package serve

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"trident/internal/core"
	"trident/internal/reliability"
	"trident/internal/units"
)

// TestGraphHealthWearMatchesFreshScan drives every kind of event that moves
// wear — or that sits next to wear without moving it — through a serving
// stack with 30-cycle endurance budgets, and after each one demands that
// GraphHealth's memoized wear fields equal a fresh reliability.WearSummary
// bit for bit. Each check probes twice, so both the rescan and the memo
// path are compared.
func TestGraphHealthWearMatchesFreshScan(t *testing.T) {
	net := buildServeNet(t)
	g := net.Graph
	probe := GraphHealth(g)
	b := NewBatcher(g, Config{MaxBatch: 4, MaxWait: 500 * time.Microsecond, Probe: probe})
	defer mustShutdown(t, b)
	ctx := context.Background()

	underToken := func(fn func()) {
		t.Helper()
		release, err := b.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		fn()
	}
	var last Health
	check := func(step string) {
		t.Helper()
		underToken(func() {
			want := reliability.WearSummary(g)
			for k := 0; k < 2; k++ {
				last = probe()
				if math.Float64bits(last.WearDrawDown) != math.Float64bits(want.MeanDrawDown) ||
					last.WornCells != want.WornOut {
					t.Fatalf("%s (probe %d): memoized wear (%v, %d worn), fresh scan (%v, %d worn)",
						step, k, last.WearDrawDown, last.WornCells, want.MeanDrawDown, want.WornOut)
				}
			}
		})
	}

	rng := rand.New(rand.NewSource(21))
	sample := func(n int) []float64 {
		x := make([]float64, n*6)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		return x
	}

	check("fresh graph")
	underToken(func() {
		if _, err := reliability.AttachWear(g, reliability.WearConfig{Seed: 5, MeanEndurance: 30}); err != nil {
			t.Fatal(err)
		}
	})
	check("AttachWear")
	attached := last.WearDrawDown
	for i := 0; i < 6; i++ {
		if _, err := b.Submit(ctx, sample(1)); err != nil {
			t.Fatal(err)
		}
	}
	check("served batches")
	for step := 0; step < 40; step++ {
		underToken(func() {
			labels := []int{step % 3, (step + 1) % 3, (step + 2) % 3, step % 3}
			if _, err := g.TrainBatch(sample(4), labels); err != nil {
				t.Fatal(err)
			}
		})
		check("TrainBatch")
	}
	if last.WearDrawDown <= attached || last.WornCells == 0 {
		t.Fatalf("training left wear at %v with %d worn cells (attach: %v): the budgets are too loose to test anything",
			last.WearDrawDown, last.WornCells, attached)
	}
	underToken(func() { g.ApplyDrift(365 * 24 * 3600 * units.Second) })
	check("ApplyDrift")
	underToken(func() { g.ForEachPE(func(_, _, _ int, pe *core.PE) { pe.RefreshWeights() }) })
	check("RefreshWeights")

	chaos := NewChaos(g, b, nil, ChaosConfig{Seed: 13, FaultFraction: 0.1})
	for _, i := range []int{1, 2} { // drift spike, then wear-fault burst
		if err := chaos.Strike(ctx, i); err != nil {
			t.Fatal(err)
		}
		check("Chaos strike")
	}

	policy := servePolicy()
	policy.WearLevelEvery, policy.MaskRowAfter = 1, 1
	m, err := NewMaintainer(g, b, nil, MaintainerConfig{Seed: 7, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := m.CheckNow(ctx); err != nil {
			t.Fatal(err)
		}
		check("Maintainer.CheckNow")
	}
	if g.MaskedRowCount() == 0 {
		t.Fatal("maintenance masked no rows: the masking path went untested")
	}
}

// buildWideGraph builds a 256→256→10 graph on 32×32 PEs, the serving
// benchmark's wide model.
func buildWideGraph(b *testing.B) *core.Graph {
	g, err := core.NewGraph(core.NetworkConfig{
		PE: core.PEConfig{Rows: 32, Cols: 32, DisableNoise: true},
	}, 256)
	if err != nil {
		b.Fatal(err)
	}
	h := g.Dense(g.Input(), core.LayerSpec{In: 256, Out: 256, Activate: true}, 1)
	if err := g.SetOutput(g.Dense(h, core.LayerSpec{In: 256, Out: 10}, 2)); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkGraphHealth times the per-batch health probe on the wide
// geometry: "unchanged" with no wear change between calls (the serving
// steady state), "pulse" with one landed write pulse before every call,
// which forces the full cell scan.
func BenchmarkGraphHealth(b *testing.B) {
	g := buildWideGraph(b)
	probe := GraphHealth(g)
	probe()
	b.Run("unchanged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			probe()
		}
	})
	var pe *core.PE
	g.ForEachPE(func(_, _, _ int, p *core.PE) {
		if pe == nil {
			pe = p
		}
	})
	bank := pe.Bank()
	w := [][]float64{{0.5}} // toggled in place, so every call lands a pulse
	b.Run("pulse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w[0][0] = -w[0][0]
			if res, err := bank.Program(w, 0); err != nil || res.CellsWritten != 1 {
				b.Fatalf("toggle wrote %d cells: %v", res.CellsWritten, err)
			}
			probe()
		}
	})
}
