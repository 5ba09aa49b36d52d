package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smoke is a short run of every workload: the gate must pass and every
// declared metric must come out finite.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every deployment")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, runConfig{seed: 3, seconds: 0.4, smoke: true}, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.gate != nil {
				t.Fatalf("gate: %v", res.gate)
			}
			if res.attempted < 1 {
				t.Fatalf("attempted %d", res.attempted)
			}
			got, err := render(endToEnd, res.e2e)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if got[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0 on every workload", d.name, got[d.name].Value)
				}
			}
		})
	}
}

// TestTracedSteadyServing is the traced run's acceptance on serve-steady:
// probe time shows separately from engine time, the handler's own cost
// and the tracing overhead are reported, no bank recompiles after warm-up,
// and the Chrome trace and per-layer table are written.
func TestTracedSteadyServing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the serving deployment")
	}
	w, _ := findWorkload("serve-steady")
	dir := t.TempDir()
	res, err := measure(w, runConfig{seed: 4, seconds: 0.8, smoke: true}, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.gate != nil {
		t.Fatalf("gate: %v", res.gate)
	}
	vs := res.layer
	for _, name := range []string{"batcher.probe_us_p50.wide", "batcher.engine_us_p50.wide.b1",
		"batcher.busy_frac.wide.r0", "router.submit_us_p50", "journal.ops", "batcher.batch_size_mean"} {
		if vs[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, vs[name])
		}
	}
	if _, ok := vs["trace.overhead_p50_ms"]; !ok {
		t.Error("tracing overhead not reported")
	}
	if vs["mrr.rows_compiled_per_step"] != 0 || vs["pcm.gst_writes_per_step"] != 0 {
		t.Errorf("steady serving recompiled %v rows and wrote %v cells per batch after warm-up",
			vs["mrr.rows_compiled_per_step"], vs["pcm.gst_writes_per_step"])
	}
	if _, err := render(perLayer, vs); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".trace.json", ".layers.txt"} {
		if _, err := os.Stat(filepath.Join(dir, "serve-steady-seed4"+suffix)); err != nil {
			t.Error(err)
		}
	}
}

// TestTracedChurnReportsMaintenance checks that serve-churn's traced run
// sees the write path: maintenance checks, refresh pulses and recompiles.
func TestTracedChurnReportsMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the serving deployment")
	}
	w, _ := findWorkload("serve-churn")
	res, err := measure(w, runConfig{seed: 5, seconds: 1.2, smoke: true}, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.gate != nil {
		t.Fatalf("gate: %v", res.gate)
	}
	for _, name := range []string{"maint.check_ms_p50", "maint.refresh_pulses", "mrr.rows_compiled_per_step", "pcm.gst_writes_per_step"} {
		if res.layer[name] <= 0 {
			t.Errorf("%s = %v, want > 0 under churn", name, res.layer[name])
		}
	}
}

// TestResultLine runs the command line end to end and checks the contract
// of the last output line.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "infer-cnn", "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke", "--out", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "env ") || !strings.Contains(lines[0], `"gomaxprocs"`) || !strings.Contains(lines[0], `"commit"`) {
		t.Fatalf("first line does not record the environment: %s", lines[0])
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(perLayer) {
		t.Fatalf("result %+v", res)
	}
	if res.Metrics["pipeline.vs_sequential"].Value <= 0 || res.Metrics["pipeline.stage_occupancy.1"].Value <= 0 {
		t.Fatalf("pipeline layer missing: %+v", res.Metrics)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "infer-cnn", "--trace", "2"},
		{"--workload", "infer-cnn", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the
// program's metric lists in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
