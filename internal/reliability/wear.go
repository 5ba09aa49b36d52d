// Package reliability makes degradation a first-class runtime process for
// the functional Trident model and closes the detect→diagnose→repair loop
// the paper's unified train/inference pitch implies:
//
//   - a stochastic wear model assigns every GST cell a Weibull-distributed
//     switching-endurance budget, so heavily reprogrammed cells fail first —
//     as stuck-crystalline fault events surfaced by internal/core — during
//     long training runs, and amorphous drift ages live bank reads as
//     simulated deployment time advances;
//   - a built-in self-test (BIST) probes every weight bank with basis
//     vectors through the real inference path and localizes out-of-tolerance
//     cells against the control unit's expected weights, with no oracle
//     access to which cells were pinned;
//   - a remediation scheduler turns BIST reports and validation accuracy
//     into policy-driven repairs: refreshing drifted cells, wear-leveling
//     write traffic by rotating logical→physical row maps, bounded in-situ
//     healing epochs, and graceful degradation (masking dead rows) when
//     healing cannot recover.
//
// Everything is deterministic under the parallel tile engine: fan-outs go
// through core.RunTiles with per-tile result slots merged in fixed order,
// and all randomness is seeded.
package reliability

import (
	"fmt"
	"math"
	"math/rand"

	"trident/internal/core"
	"trident/internal/device"
	"trident/internal/mrr"
)

// WearConfig parameterizes the stochastic endurance model.
type WearConfig struct {
	// Seed makes the per-cell budget draws reproducible.
	Seed int64
	// MeanEndurance is the Weibull characteristic life λ in switching
	// cycles (the 63rd-percentile cell lifetime). Zero keeps the device
	// nominal (device.GSTEnduranceCycles — effectively no wear over
	// simulated runs); lifetime studies scale it down so failures emerge
	// within the simulated horizon.
	MeanEndurance float64
	// Shape is the Weibull shape k. k > 1 is the wear-out regime: failure
	// rate grows with consumed cycles, matching PCM cycling studies.
	// Default 5.
	Shape float64
}

// withDefaults fills zero fields.
func (c WearConfig) withDefaults() WearConfig {
	if c.MeanEndurance <= 0 || math.IsNaN(c.MeanEndurance) {
		c.MeanEndurance = device.GSTEnduranceCycles
	}
	if c.Shape <= 0 || math.IsNaN(c.Shape) {
		c.Shape = 5
	}
	return c
}

// sampleWeibull draws one Weibull(shape, scale) lifetime via inverse-CDF.
func sampleWeibull(rng *rand.Rand, scale, shape float64) float64 {
	u := rng.Float64()
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// WearStats summarizes the endurance draw-down of every GST weight cell in
// a network: how much of each cell's switching budget its lifetime writes
// have consumed. A wear-aware serving router reads this to steer traffic
// toward the least-worn replica, mirroring row-rotation wear-leveling one
// level up.
type WearStats struct {
	// Cells is the number of PCM weight cells inspected.
	Cells int
	// WornOut counts cells whose writes have met or passed their budget.
	WornOut int
	// MeanDrawDown and MaxDrawDown are the mean and worst per-cell
	// writes/endurance fractions (0 = pristine, ≥1 = exhausted).
	MeanDrawDown float64
	MaxDrawDown  float64
}

// WearSummary walks the network's PCM weight cells and reports their
// cumulative endurance draw-down. It only reads bookkeeping counters
// (lifetime writes, endurance budget), but it reads every cell, so the
// serving health probe reuses its last result until a bank's WearGen
// moves; like every bank read it must not race a mutation, so callers
// hold the execute token.
func WearSummary(net *core.Graph) WearStats {
	var st WearStats
	var sum float64
	net.ForEachPE(func(_, _, _ int, pe *core.PE) {
		bank := pe.Bank()
		for r := 0; r < bank.Rows(); r++ {
			for c := 0; c < bank.Cols(); c++ {
				t, ok := bank.PhysicalTuner(r, c).(*mrr.PCMTuner)
				if !ok {
					continue
				}
				cell := t.Cell()
				limit := cell.EnduranceLimit()
				if limit <= 0 {
					continue
				}
				frac := float64(cell.Writes()) / limit
				st.Cells++
				sum += frac
				if frac > st.MaxDrawDown {
					st.MaxDrawDown = frac
				}
				if cell.WornOut() {
					st.WornOut++
				}
			}
		}
	})
	if st.Cells > 0 {
		st.MeanDrawDown = sum / float64(st.Cells)
	}
	return st
}

// AttachWear assigns every GST weight cell in the network a per-cell
// endurance budget drawn from the Weibull distribution, walking the tile
// grid in fixed order so the same seed always produces the same budgets.
// Budgets count total lifetime writes, so cycles already consumed (initial
// programming) draw against them. It returns the number of cells touched.
func AttachWear(net *core.Graph, cfg WearConfig) (int, error) {
	if net == nil {
		return 0, fmt.Errorf("reliability: nil network")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	cells := 0
	net.ForEachPE(func(_, _, _ int, pe *core.PE) {
		bank := pe.Bank()
		for r := 0; r < bank.Rows(); r++ {
			for c := 0; c < bank.Cols(); c++ {
				if _, ok := bank.PhysicalTuner(r, c).(*mrr.PCMTuner); !ok {
					continue
				}
				bank.SetPhysicalEnduranceLimit(r, c, sampleWeibull(rng, cfg.MeanEndurance, cfg.Shape))
				cells++
			}
		}
	})
	return cells, nil
}
