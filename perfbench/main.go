// Command perfbench is Trident's end-to-end benchmark. It drives one named
// workload through the public packages for a fixed time, checks the
// workload's outputs, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	go run . --workload serve-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run is split into an untraced and a traced half, spans are written as a
// Chrome trace plus a per-layer table under --out, and the metrics are the
// per-layer set. METRICS.md describes every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // measured time
	smoke   bool    // tests: one set-up, no sample-count floor
}

// setupDone reports whether a run has built its deployment or model often
// enough: at least five times and for at least a second in total, so
// cheap builds repeat more and their median stays steady (at most 300
// builds; smoke runs build once). setup_s is the median build time and the
// last build is the one measured.
func setupDone(cfg runConfig, builds []float64) bool {
	if cfg.smoke {
		return len(builds) >= 1
	}
	total := 0.0
	for _, b := range builds {
		total += b
	}
	return len(builds) >= 300 || (len(builds) >= 5 && total >= 1)
}

// phaseResult is what one workload run produced.
type phaseResult struct {
	attempted, failed int
	e2e, layer        values
	info              []string // human-readable detail printed before the result
	gate              error    // correctness failure; no numbers are reported
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(cfg runConfig, tr *tracer) (*phaseResult, error)
}

var workloads = []workload{
	{"serve-steady", func(cfg runConfig, tr *tracer) (*phaseResult, error) { return runServing(cfg, tr, false) }},
	{"serve-churn", func(cfg runConfig, tr *tracer) (*phaseResult, error) { return runServing(cfg, tr, true) }},
	{"train-mlp", runTrain},
	{"infer-cnn", runCNN},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/trace", "directory for trace files")
	commit := fs.String("commit", "unknown", "commit being measured (recorded only)")
	smoke := fs.Bool("smoke", false, "quick check: one build, no minimum sample count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", names)
		return 2
	}
	env := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit,
	}
	envLine, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Fprintf(stdout, "env %s\n", envLine)

	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	res, err := measure(w, cfg, *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range res.info {
		fmt.Fprintln(stdout, line)
	}
	final := result{Correct: res.gate == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	status := 0
	if res.gate != nil {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %v\n", w.name, res.gate)
		status = 1
	} else {
		defs, vs := endToEnd, res.e2e
		if *traced == 1 {
			defs, vs = perLayer, res.layer
		}
		if final.Metrics, err = render(defs, vs); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return status
}

// measure runs w once untraced, or — for a traced run — an untraced half
// and a traced half, so the per-layer set can carry the tracing overhead.
func measure(w workload, cfg runConfig, traced bool, out string) (*phaseResult, error) {
	if !traced {
		return w.run(cfg, nil)
	}
	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := w.run(half, nil)
	if err != nil {
		return nil, err
	}
	if plain.gate != nil {
		return plain, nil
	}
	tr := newTracer()
	res, err := w.run(half, tr)
	if err != nil {
		return nil, err
	}
	res.attempted += plain.attempted
	res.failed += plain.failed
	if res.gate != nil {
		return res, nil
	}
	// The per-layer latencies come from the untraced half.
	res.layer["trace.overhead_p50_ms"] = res.layer["p50_ms"] - plain.layer["p50_ms"]
	for _, name := range []string{"p50_ms", "p90_ms", "p99_ms", "host.speed"} {
		res.layer[name] = plain.layer[name]
	}
	if base := plain.e2e["samples_per_s"]; base > 0 {
		res.layer["trace.overhead_samples_per_s_pct"] = (base - res.e2e["samples_per_s"]) / base * 100
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	prefix := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	if err := dumpTrace(tr, prefix); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rows := layerTable(tr.snapshot())
	res.info = append(res.info, "per-layer table (self time = span minus its children): "+prefix+".layers.txt")
	for _, r := range rows {
		res.info = append(res.info, fmt.Sprintf("  %-24s n=%-7d total=%.1fms self=%.1fms p50=%.1fus",
			r.name, r.count, ms(r.total, 0), ms(r.self, 0), us(r.p50)))
	}
	res.info = append(res.info, fmt.Sprintf("trace overhead: p50 %+.4f ms, samples/s %+.2f%% (traced minus untraced)",
		res.layer["trace.overhead_p50_ms"], -res.layer["trace.overhead_samples_per_s_pct"]))
	return res, nil
}

// errGate marks a workload output that failed its correctness check.
var errGate = errors.New("correctness gate")
