package benchio

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// sampleRuns are four runs of three cases: BankMVM runs twice, first at
// 13259 ns/op with 1 alloc of 64 B per op, then at 12800 ns/op with none.
var sampleRuns = []Run{
	{"BenchmarkBankMVM/64x64", testing.BenchmarkResult{N: 1000, T: 13259 * time.Microsecond,
		MemAllocs: 1000, MemBytes: 64000, Extra: map[string]float64{"MVMs/sec": 75422}}},
	{"BenchmarkBankMVMReference/64x64", testing.BenchmarkResult{N: 100, T: 45777500 * time.Nanosecond,
		Extra: map[string]float64{"MVMs/sec": 2185}}},
	{"BenchmarkBankMVM/64x64", testing.BenchmarkResult{N: 2000, T: 25600 * time.Microsecond,
		Extra: map[string]float64{"MVMs/sec": 78000}}},
	{"BenchmarkBankProgram/16x16", testing.BenchmarkResult{N: 5000, T: 1200 * time.Millisecond,
		MemAllocs: 10000, MemBytes: 5000 * 1024}},
}

// sampleReport is the folded sampleRuns: BankMVM at 12800 ns/op, the
// reference at 457775 ns/op.
func sampleReport(maxProcs int) *Report {
	return &Report{Schema: Schema, MaxProcs: maxProcs, Results: Fold(sampleRuns)}
}

func TestFoldRuns(t *testing.T) {
	results := Fold(sampleRuns)
	var names []string
	for _, r := range results {
		names = append(names, r.Name)
	}
	want := []string{"BenchmarkBankMVM/64x64", "BenchmarkBankMVMReference/64x64", "BenchmarkBankProgram/16x16"}
	if !slices.Equal(names, want) {
		t.Fatalf("names %q, want first-run order %q", names, want)
	}
	mvm := results[0]
	if mvm.Runs != 2 {
		t.Errorf("runs = %d, want 2", mvm.Runs)
	}
	if mvm.NsPerOp != 12800 {
		t.Errorf("ns/op = %v, want min 12800", mvm.NsPerOp)
	}
	if want := (13259.0 + 12800.0) / 2; mvm.NsPerOpMean != want {
		t.Errorf("mean ns/op = %v, want %v", mvm.NsPerOpMean, want)
	}
	if mvm.MVMsPerSec != 78000 {
		t.Errorf("MVMs/sec = %v, want max 78000", mvm.MVMsPerSec)
	}
	if mvm.AllocsPerOp != 1 || mvm.BytesPerOp != 64 {
		t.Errorf("mvm allocs=%v bytes=%v, want max 1/64 over a run with none", mvm.AllocsPerOp, mvm.BytesPerOp)
	}
	if ref := results[1]; ref.Runs != 1 || ref.NsPerOp != 457775 || ref.NsPerOpMean != 457775 {
		t.Errorf("single run: %+v", ref)
	}
	prog := results[2]
	if prog.AllocsPerOp != 2 || prog.BytesPerOp != 1024 || prog.MVMsPerSec != 0 {
		t.Errorf("program allocs=%v bytes=%v MVMs/sec=%v, want 2/1024/0",
			prog.AllocsPerOp, prog.BytesPerOp, prog.MVMsPerSec)
	}
	if got := Fold(nil); len(got) != 0 {
		t.Errorf("Fold(nil) = %+v", got)
	}
}

func TestApplyGate(t *testing.T) {
	rep := sampleReport(0)
	if err := rep.ApplyGate(Gate{Fast: "BenchmarkBankMVM/64x64", Ref: "BenchmarkBankMVMReference/64x64", Required: 2}); err != nil {
		t.Fatal(err)
	}
	if len(rep.Gates) != 1 || !rep.Gates[0].Passed || rep.Gates[0].Waived {
		t.Errorf("gate failed: %+v", rep.Gates)
	}
	if want := 457775.0 / 12800.0; rep.Gates[0].Speedup != want {
		t.Errorf("speedup %v, want %v", rep.Gates[0].Speedup, want)
	}
	if !rep.GatesPassed() {
		t.Error("GatesPassed = false with one passing gate")
	}
	if err := rep.ApplyGate(Gate{Fast: "BenchmarkMissing", Ref: "BenchmarkBankMVM/64x64", Required: 2}); err == nil {
		t.Error("missing fast benchmark: want error")
	}
	if err := rep.ApplyGate(Gate{Fast: "BenchmarkBankMVM/64x64", Ref: "BenchmarkMissing", Required: 2}); err == nil {
		t.Error("missing ref benchmark: want error")
	}
	if len(rep.Gates) != 1 {
		t.Errorf("failed ApplyGate calls must not append gates: %+v", rep.Gates)
	}
	// An impossible requirement must record a failing second gate without
	// disturbing the first.
	if err := rep.ApplyGate(Gate{Fast: "BenchmarkBankMVMReference/64x64", Ref: "BenchmarkBankMVM/64x64", Required: 2}); err != nil {
		t.Fatal(err)
	}
	if len(rep.Gates) != 2 || rep.Gates[1].Passed {
		t.Errorf("inverted gate: %+v", rep.Gates)
	}
	if !rep.Gates[0].Passed {
		t.Error("first gate verdict changed by second ApplyGate")
	}
	if rep.GatesPassed() {
		t.Error("GatesPassed = true with a failing gate")
	}
}

// TestApplyGateMinProcs pins the parallelism gates: below MinProcs the
// gate is waived but still records its ratio, at or above it binds.
func TestApplyGateMinProcs(t *testing.T) {
	// The "parallel" benchmark here is slower than its reference, so the raw
	// gate fails — exactly the situation on a single-CPU host.
	slow := Gate{Fast: "BenchmarkBankMVMReference/64x64", Ref: "BenchmarkBankMVM/64x64", Required: 1.5, MinProcs: 2}
	rep := sampleReport(1)
	if err := rep.ApplyGate(slow); err != nil {
		t.Fatal(err)
	}
	g := rep.Gates[0]
	if !g.Waived || !g.Passed {
		t.Errorf("below min_procs the gate must be waived and pass: %+v", g)
	}
	if g.MinProcs != 2 {
		t.Errorf("min_procs = %d, want 2", g.MinProcs)
	}
	if want := 12800.0 / 457775.0; g.Speedup != want {
		t.Errorf("waived gate must still record the measured ratio: %v, want %v", g.Speedup, want)
	}
	if !rep.GatesPassed() {
		t.Error("GatesPassed = false with a waived gate")
	}
	// At or above min_procs the same numbers must fail for real.
	rep2 := sampleReport(8)
	if err := rep2.ApplyGate(slow); err != nil {
		t.Fatal(err)
	}
	if g := rep2.Gates[0]; g.Waived || g.Passed {
		t.Errorf("at min_procs the gate must bind: %+v", g)
	}
	// And a genuinely fast kernel passes without a waiver.
	rep3 := sampleReport(8)
	if err := rep3.ApplyGate(Gate{Fast: "BenchmarkBankMVM/64x64", Ref: "BenchmarkBankMVMReference/64x64", Required: 1.5, MinProcs: 2}); err != nil {
		t.Fatal(err)
	}
	if g := rep3.Gates[0]; g.Waived || !g.Passed {
		t.Errorf("fast kernel on a multi-core host: %+v", g)
	}
	if err := rep3.ApplyGate(Gate{Fast: "BenchmarkMissing", Ref: "BenchmarkBankMVM/64x64", Required: 1.5, MinProcs: 2}); err == nil {
		t.Error("missing benchmark: want error")
	}
	// MinProcs == 0 binds even on a report that records no CPU count.
	rep4 := sampleReport(0)
	slow.MinProcs = 0
	if err := rep4.ApplyGate(slow); err != nil {
		t.Fatal(err)
	}
	if g := rep4.Gates[0]; g.Waived || g.Passed {
		t.Errorf("a gate without min_procs must bind: %+v", g)
	}
}

// TestSuiteMatchesTrajectory pins the suite to the committed trajectory:
// the same case names in the same order, and the same gates with the same
// bounds and CPU minimums, so a renamed, reordered or dropped case or a
// loosened gate shows up here rather than as a silently shifted trajectory.
func TestSuiteMatchesTrajectory(t *testing.T) {
	rep, err := ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, c := range Suite {
		got = append(got, c.Name)
	}
	for _, r := range rep.Results {
		want = append(want, r.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("suite cases\n%q\ntrajectory results\n%q", got, want)
	}
	spec := func(g Gate) Gate {
		return Gate{Fast: g.Fast, Ref: g.Ref, Required: g.Required, MinProcs: g.MinProcs}
	}
	if len(Gates) != len(rep.Gates) {
		t.Fatalf("%d gates, trajectory has %d", len(Gates), len(rep.Gates))
	}
	for i, g := range Gates {
		if g != spec(g) {
			t.Errorf("gate table entry %d carries a measurement: %+v", i, g)
		}
		if spec(rep.Gates[i]) != g {
			t.Errorf("gate %d = %+v, trajectory has %+v", i, g, spec(rep.Gates[i]))
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rep := sampleReport(2)
	rep.GoVersion = "go1.22"
	if err := rep.ApplyGate(Gate{Fast: "BenchmarkBankMVM/64x64", Ref: "BenchmarkBankMVMReference/64x64", Required: 2}); err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyGate(Gate{Fast: "BenchmarkBankMVM/64x64", Ref: "BenchmarkBankProgram/16x16", Required: 1.5, MinProcs: 4}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || len(back.Results) != len(rep.Results) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if !slices.Equal(back.Gates, rep.Gates) || !slices.Equal(back.Results, rep.Results) {
		t.Errorf("report did not survive round trip: %+v", back)
	}
}

// TestReadFileRejectsBadJSON pins the failure mode for damaged trajectory
// files: malformed, truncated and empty files must all error (naming the
// file), never come back as a zero-value report that would pass gating.
func TestReadFileRejectsBadJSON(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage.json":   "not json at all {",
		"truncated.json": `{"schema":"trident-bench/3","results":[{"name":"B`,
		"empty.json":     "",
	}
	for name, body := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if err == nil {
			t.Errorf("%s: ReadFile accepted damaged JSON", name)
			continue
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ReadFile of a missing file must error")
	}
}

// TestGateBoundaries pins the two gate comparisons exactly at their
// thresholds: a measured speedup equal to the requirement passes (the
// gate is ≥, not >), and a host with exactly MinProcs CPUs binds the
// parallel gate rather than waiving it.
func TestGateBoundaries(t *testing.T) {
	rep := &Report{Schema: Schema, Results: []Result{
		{Name: "fast", NsPerOp: 100},
		{Name: "ref", NsPerOp: 150},
	}}
	if err := rep.ApplyGate(Gate{Fast: "fast", Ref: "ref", Required: 1.5}); err != nil {
		t.Fatal(err)
	}
	if g := rep.Gates[0]; g.Speedup != 1.5 || !g.Passed {
		t.Errorf("speedup exactly at the requirement must pass: %+v", g)
	}

	// MaxProcs == MinProcs is the smallest host the gate binds on.
	bind := &Report{Schema: Schema, Results: rep.Results, MaxProcs: 2}
	if err := bind.ApplyGate(Gate{Fast: "ref", Ref: "fast", Required: 1.5, MinProcs: 2}); err != nil {
		t.Fatal(err)
	}
	if g := bind.Gates[0]; g.Waived || g.Passed {
		t.Errorf("at exactly min_procs the gate must bind and this ratio must fail: %+v", g)
	}
	waive := &Report{Schema: Schema, Results: rep.Results, MaxProcs: 1}
	if err := waive.ApplyGate(Gate{Fast: "ref", Ref: "fast", Required: 1.5, MinProcs: 2}); err != nil {
		t.Fatal(err)
	}
	if g := waive.Gates[0]; !g.Waived || !g.Passed {
		t.Errorf("one CPU below min_procs must waive: %+v", g)
	}
}
