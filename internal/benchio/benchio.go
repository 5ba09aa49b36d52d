// Package benchio is the benchmark trajectory: the suite of hot-path
// benchmarks (Suite), the speedup gates over it (Gates), and the
// machine-readable trajectory file (schema trident-bench/3, BENCH_PR*.json)
// that `trident bench` writes. The suite covers the GST-tuned MRR
// weight-bank kernels, dirty-row recompilation and GST programming, in-situ
// training with the reprogram-free backward pass, the serving and routing
// front-ends and pipelined execution; `trident bench` runs each case
// through testing.Benchmark, folds the repeated runs (Fold), applies every
// gate and writes the file, and `go test -bench Trajectory` in the module
// root reaches the same cases for ad-hoc runs and profiling. A gate with a
// minimum processor count is a parallelism gate: on hosts with fewer
// logical CPUs (where no parallel speedup is physically available) the
// measured ratio is still recorded but the gate is marked waived and does
// not fail the build — multi-core CI enforces it for real.
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// Result is one benchmark series aggregated across -count repetitions.
type Result struct {
	Name string `json:"name"`
	Runs int    `json:"runs"`
	// NsPerOp is the best (minimum) time per operation across runs — the
	// least-noise estimate of the kernel's speed.
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpMean is the arithmetic mean across runs, kept alongside the
	// minimum so trajectory diffs can spot variance blow-ups.
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MVMsPerSec is the best (maximum) throughput metric across runs, for
	// benchmarks that report one.
	MVMsPerSec float64 `json:"mvms_per_sec,omitempty"`
}

// Gate records one enforced speedup requirement of a trajectory file.
type Gate struct {
	Fast     string  `json:"fast"`
	Ref      string  `json:"ref"`
	Required float64 `json:"required"`
	Speedup  float64 `json:"speedup"`
	Passed   bool    `json:"passed"`
	// MinProcs, when positive, marks a parallelism gate: it only binds on
	// hosts with at least this many logical CPUs. Below that the gate is
	// recorded with Waived=true and Passed=true — a single-threaded host
	// cannot demonstrate a parallel speedup, and failing the build there
	// would gate on the machine, not the code.
	MinProcs int  `json:"min_procs,omitempty"`
	Waived   bool `json:"waived,omitempty"`
}

// Report is the trajectory file schema.
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	MaxProcs  int      `json:"max_procs,omitempty"`
	Results   []Result `json:"results"`
	Gates     []Gate   `json:"gates,omitempty"`
}

// Schema is the current trajectory-file schema identifier. /2 replaced the
// single `gate` field with the `gates` list; /3 added the processor-count
// record (MaxProcs) and waivable parallelism gates (MinProcs/Waived).
const Schema = "trident-bench/3"

// Run is one testing.Benchmark run of a named case.
type Run struct {
	Name string
	testing.BenchmarkResult
}

// Fold aggregates repeated runs of each case into one Result per name, in
// first-run order: minimum and mean ns/op, maximum MVMs/sec, maximum B/op
// and allocs/op. Every run must have completed at least one iteration.
func Fold(runs []Run) []Result {
	var out []Result
	index := map[string]int{}
	for _, r := range runs {
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		i, ok := index[r.Name]
		if !ok {
			i = len(out)
			index[r.Name] = i
			out = append(out, Result{Name: r.Name, NsPerOp: ns})
		}
		res := &out[i]
		res.Runs++
		res.NsPerOp = min(res.NsPerOp, ns)
		res.NsPerOpMean += ns // summed here, divided below
		res.BytesPerOp = max(res.BytesPerOp, float64(r.AllocedBytesPerOp()))
		res.AllocsPerOp = max(res.AllocsPerOp, float64(r.AllocsPerOp()))
		res.MVMsPerSec = max(res.MVMsPerSec, r.Extra["MVMs/sec"])
	}
	for i := range out {
		out[i].NsPerOpMean /= float64(out[i].Runs)
	}
	return out
}

// Find returns the result with the given name, or nil.
func (rep *Report) Find(name string) *Result {
	for i := range rep.Results {
		if rep.Results[i].Name == name {
			return &rep.Results[i]
		}
	}
	return nil
}

// ApplyGate computes the ref/fast speedup of spec's two results and
// appends spec, with its measured speedup and verdict, to the report's gate
// list. A gate with MinProcs > rep.MaxProcs is recorded waived and passes,
// since a host without that many CPUs cannot demonstrate the parallel
// speedup; MinProcs == 0 always binds. It errors when either benchmark is
// missing from the report — an absent gate benchmark must fail the build,
// not silently pass it.
func (rep *Report) ApplyGate(spec Gate) error {
	f := rep.Find(spec.Fast)
	if f == nil {
		return fmt.Errorf("benchio: gate benchmark %q not in report", spec.Fast)
	}
	g := rep.Find(spec.Ref)
	if g == nil {
		return fmt.Errorf("benchio: gate benchmark %q not in report", spec.Ref)
	}
	if f.NsPerOp <= 0 {
		return fmt.Errorf("benchio: gate benchmark %q has no timing", spec.Fast)
	}
	spec.Speedup = g.NsPerOp / f.NsPerOp
	spec.Waived = rep.MaxProcs < spec.MinProcs
	spec.Passed = spec.Waived || spec.Speedup >= spec.Required
	rep.Gates = append(rep.Gates, spec)
	return nil
}

// GatesPassed reports whether every recorded gate passed. A report with no
// gates passes vacuously.
func (rep *Report) GatesPassed() bool {
	for _, g := range rep.Gates {
		if !g.Passed {
			return false
		}
	}
	return true
}

// WriteFile writes the report as indented JSON.
func WriteFile(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a trajectory file.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("benchio: %s: %w", path, err)
	}
	return rep, nil
}
