// Package pcm models Ge2Sb2Te5 (GST) phase-change material as used by the
// Trident architecture for two distinct purposes:
//
//   - weight storage: a GST patch on a microring waveguide acts as a
//     programmable, non-volatile attenuator with 255 distinguishable states
//     (8-bit resolution), written with 660 pJ optical pulses in 300 ns and
//     read with 20 pJ pulses;
//   - non-linear activation: a GST cell at a ring/waveguide crossing switches
//     from crystalline (absorbing) to amorphous (transmitting) only when the
//     weighted-sum pulse exceeds a threshold energy, realizing a ReLU-like
//     activation entirely in the optical domain (Fig. 3 of the paper).
//
// The package also implements the Linear Derivative Storage Unit (LDSU): the
// comparator + D-flip-flop pair that latches the activation derivative during
// the forward pass so in-situ backpropagation never fetches f'(h) from memory.
package pcm

import (
	"errors"
	"fmt"
	"math"

	"trident/internal/device"
	"trident/internal/units"
)

// Complex refractive indices of GST at 1550 nm. Values follow the
// measurements cited by the paper's device references (Zhang et al., Guo et
// al.): the amorphous phase is nearly transparent, the crystalline phase is
// strongly absorbing.
var (
	// AmorphousIndex is n + ik of amorphous GST at 1550 nm.
	AmorphousIndex = complex(4.6, 0.18)
	// CrystallineIndex is n + ik of crystalline GST at 1550 nm.
	CrystallineIndex = complex(7.2, 1.90)
)

// EffectiveIndex returns the complex refractive index of partially
// crystallized GST with crystalline volume fraction chi ∈ [0, 1], using the
// Maxwell-Garnett effective-medium approximation with crystalline inclusions
// in an amorphous host. The fraction is clamped to [0, 1].
func EffectiveIndex(chi float64) complex128 {
	if chi <= 0 {
		return AmorphousIndex
	}
	if chi >= 1 {
		return CrystallineIndex
	}
	eh := AmorphousIndex * AmorphousIndex     // host permittivity
	ei := CrystallineIndex * CrystallineIndex // inclusion permittivity
	f := complex(chi, 0)
	// Maxwell-Garnett: (ε−εh)/(ε+2εh) = f (εi−εh)/(εi+2εh)
	r := f * (ei - eh) / (ei + 2*eh)
	eps := eh * (1 + 2*r) / (1 - r)
	return sqrtComplex(eps)
}

// sqrtComplex returns the principal square root with non-negative imaginary
// part (a passive material absorbs; it never amplifies).
func sqrtComplex(z complex128) complex128 {
	r := math.Hypot(real(z), imag(z))
	re := math.Sqrt((r + real(z)) / 2)
	im := math.Sqrt((r - real(z)) / 2)
	if imag(z) < 0 {
		im = -im
	}
	if im < 0 {
		re, im = -re, -im
	}
	return complex(re, im)
}

// AbsorptionCoefficient returns the intensity absorption coefficient
// α = 4πk/λ (per meter) for crystalline fraction chi at wavelength lambda.
func AbsorptionCoefficient(chi float64, lambda units.Length) float64 {
	k := imag(EffectiveIndex(chi))
	return 4 * math.Pi * k / lambda.Meters()
}

// Transmission returns the optical power transmission exp(−αL) of a GST
// patch of length patchLen with crystalline fraction chi at wavelength
// lambda. The modal confinement factor gamma scales how much of the guided
// mode overlaps the GST (typical integrated cells: 0.05–0.2).
func Transmission(chi float64, patchLen units.Length, gamma float64, lambda units.Length) float64 {
	alpha := AbsorptionCoefficient(chi, lambda)
	return math.Exp(-alpha * gamma * patchLen.Meters())
}

// Cell is one programmable GST patch: the weight-storage element embedded in
// each weight-bank microring. Its state is one of device.GSTLevels
// crystalline fractions; level 0 is fully crystalline (maximum absorption,
// smallest weight), level GSTLevels−1 fully amorphous (maximum transmission,
// largest weight) — matching the paper's "amorphous = large weight,
// crystalline = small weight".
type Cell struct {
	level    int
	levels   int
	patchLen units.Length
	gamma    float64
	lambda   units.Length

	writes    uint64  // endurance cycles consumed
	endurance float64 // switching-endurance budget of this specific cell
	energy    units.Energy
	busyUntil units.Duration // completion time of the in-flight write
}

// CellConfig parameterizes a GST cell. The zero value is replaced by
// defaults suitable for an integrated weight cell.
type CellConfig struct {
	Levels      int          // programmable states; default device.GSTLevels
	PatchLength units.Length // GST patch length; default 1.2 µm
	Confinement float64      // modal overlap Γ; default 0.12
	Wavelength  units.Length // operating wavelength; default 1550 nm
	// EnduranceCycles is the switching-endurance budget of this cell;
	// default device.GSTEnduranceCycles. Fabricated cells spread around the
	// nominal figure, so lifetime simulations assign per-cell budgets drawn
	// from a wear distribution (internal/reliability).
	EnduranceCycles float64
}

// ErrWornOut reports a cell past its switching endurance.
var ErrWornOut = errors.New("pcm: cell exceeded GST switching endurance")

// NewCell returns a fully crystalline cell (level 0) with cfg defaults
// filled in.
func NewCell(cfg CellConfig) (*Cell, error) {
	if cfg.Levels == 0 {
		cfg.Levels = device.GSTLevels
	}
	if cfg.Levels < 2 {
		return nil, fmt.Errorf("pcm: cell needs ≥2 levels (got %d)", cfg.Levels)
	}
	if cfg.PatchLength == 0 {
		cfg.PatchLength = 1.2 * units.Micrometer
	}
	if cfg.PatchLength < 0 {
		return nil, fmt.Errorf("pcm: negative patch length %v", cfg.PatchLength)
	}
	if cfg.Confinement == 0 {
		cfg.Confinement = 0.12
	}
	if cfg.Confinement < 0 || cfg.Confinement > 1 {
		return nil, fmt.Errorf("pcm: confinement %v outside [0,1]", cfg.Confinement)
	}
	if cfg.Wavelength == 0 {
		cfg.Wavelength = 1550 * units.Nanometer
	}
	if cfg.EnduranceCycles == 0 {
		cfg.EnduranceCycles = device.GSTEnduranceCycles
	}
	if cfg.EnduranceCycles < 0 {
		return nil, fmt.Errorf("pcm: negative endurance budget %v", cfg.EnduranceCycles)
	}
	return &Cell{
		levels:    cfg.Levels,
		patchLen:  cfg.PatchLength,
		gamma:     cfg.Confinement,
		lambda:    cfg.Wavelength,
		endurance: cfg.EnduranceCycles,
	}, nil
}

// Levels returns the number of programmable states.
func (c *Cell) Levels() int { return c.levels }

// Level returns the current programmed level.
func (c *Cell) Level() int { return c.level }

// CrystallineFraction returns χ for the current level: level 0 is χ=1
// (fully crystalline), the top level is χ=0 (fully amorphous).
func (c *Cell) CrystallineFraction() float64 {
	return 1 - float64(c.level)/float64(c.levels-1)
}

// Program writes the cell to the given level using an optical write pulse.
// Reprogramming to the same level is a no-op costing nothing: the control
// unit compares before writing, and GST is non-volatile so an equal state
// needs no refresh. It returns the time at which the write completes, given
// that it was issued at time now, and an error if the cell's endurance is
// exhausted or the level is out of range.
func (c *Cell) Program(level int, now units.Duration) (done units.Duration, err error) {
	if level < 0 || level >= c.levels {
		return now, fmt.Errorf("pcm: level %d outside [0,%d)", level, c.levels)
	}
	if level == c.level {
		return now, nil
	}
	if float64(c.writes) >= c.endurance {
		return now, ErrWornOut
	}
	return c.pulse(level, now), nil
}

// Rewrite re-issues a write pulse at the cell's current level — the refresh
// operation a controller uses to re-amorphize a drifted state. Unlike
// Program, an equal level is not a no-op: the pulse is physically emitted,
// consuming one endurance cycle and the full write energy. It returns
// ErrWornOut when the cell has no endurance left.
func (c *Cell) Rewrite(now units.Duration) (done units.Duration, err error) {
	if float64(c.writes) >= c.endurance {
		return now, ErrWornOut
	}
	return c.pulse(c.level, now), nil
}

// pulse books one write pulse landing the cell at level.
func (c *Cell) pulse(level int, now units.Duration) units.Duration {
	c.level = level
	c.writes++
	c.energy += device.GSTWriteEnergy
	c.busyUntil = now + device.GSTWriteTime
	return c.busyUntil
}

// Transmission returns the linear optical power transmission of the cell in
// its current state. It is strictly increasing with level.
func (c *Cell) Transmission() float64 {
	return Transmission(c.CrystallineFraction(), c.patchLen, c.gamma, c.lambda)
}

// TransmissionRange returns the (min, max) transmission across the cell's
// programmable range — the extinction window available for weighting.
func (c *Cell) TransmissionRange() (lo, hi float64) {
	lo = Transmission(1, c.patchLen, c.gamma, c.lambda)
	hi = Transmission(0, c.patchLen, c.gamma, c.lambda)
	return lo, hi
}

// Read models a 20 pJ read pulse and returns the transmission.
func (c *Cell) Read() float64 {
	c.energy += device.GSTReadEnergy
	return c.Transmission()
}

// Writes returns the number of endurance cycles consumed.
func (c *Cell) Writes() uint64 { return c.writes }

// EnergyConsumed returns the cumulative optical programming/read energy.
func (c *Cell) EnergyConsumed() units.Energy { return c.energy }

// RemainingEndurance returns the fraction of switching endurance left.
func (c *Cell) RemainingEndurance() float64 {
	used := float64(c.writes) / c.endurance
	if used > 1 {
		return 0
	}
	return 1 - used
}

// EnduranceLimit returns the cell's switching-endurance budget in cycles.
func (c *Cell) EnduranceLimit() float64 { return c.endurance }

// SetEnduranceLimit overrides the cell's endurance budget — the hook the
// reliability engine uses, through the owning weight bank, to assign
// Weibull-sampled per-cell lifetimes.
// Non-positive budgets are clamped to zero (an already-dead cell).
func (c *Cell) SetEnduranceLimit(cycles float64) {
	if cycles < 0 || math.IsNaN(cycles) {
		cycles = 0
	}
	c.endurance = cycles
}

// WornOut reports whether the cell has exhausted its switching endurance:
// the next state-changing write will fail with ErrWornOut.
func (c *Cell) WornOut() bool { return float64(c.writes) >= c.endurance }
