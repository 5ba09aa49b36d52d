package main

import (
	"errors"
	"math"
	"testing"

	"trident/internal/core"
	"trident/internal/serve"
)

// Each workload's correctness gate must accept the real output and reject
// a deliberately corrupted copy of it.

func TestRepliesGateRejectsWrongClass(t *testing.T) {
	m := &servedModel{name: "digits"}
	ref := map[*servedModel][]int{m: {3, 1, 4}}
	good := []reply{{m, 0, 3}, {m, 2, 4}, {m, 0, 3}}
	if err := checkReplies(good, ref); err != nil {
		t.Fatalf("correct replies rejected: %v", err)
	}
	bad := append([]reply(nil), good...)
	bad[1].cls = 5
	if err := checkReplies(bad, ref); !errors.Is(err, errGate) {
		t.Fatalf("corrupted reply accepted: %v", err)
	}
}

func TestReplayGateRejectsDivergedJournal(t *testing.T) {
	build := func() *core.Network {
		net, err := core.NewNetwork(core.NetworkConfig{
			PE: core.PEConfig{Rows: 8, Cols: 8, DisableNoise: true}, LearningRate: 0.1,
		}, core.LayerSpec{In: 6, Out: 8, Activate: true}, core.LayerSpec{In: 8, Out: 3})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	served := build()
	xs := make([]float64, 4*6)
	for i := range xs {
		xs[i] = math.Sin(float64(i))
	}
	classes, err := served.PredictBatch(nil, xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	record := func(cls []int) *serve.Journal {
		j := serve.NewJournal()
		j.Record(serve.Op{Kind: serve.OpBatch, Inputs: xs, Batch: 4, Classes: append([]int(nil), cls...)})
		return j
	}
	noChecks := func(int) error { return nil }
	if err := checkReplay("good", record(classes), build().Graph, noChecks); err != nil {
		t.Fatalf("faithful journal rejected: %v", err)
	}
	corrupt := append([]int(nil), classes...)
	corrupt[2] = (corrupt[2] + 1) % 3
	if err := checkReplay("bad", record(corrupt), build().Graph, noChecks); !errors.Is(err, errGate) {
		t.Fatalf("corrupted journal accepted: %v", err)
	}
}

func TestTrainingGateRejectsBadLossOrAccuracy(t *testing.T) {
	if err := checkTraining([]float64{2.3, 1.1, 0.4}, 0.97, accuracyFloor); err != nil {
		t.Fatalf("healthy training rejected: %v", err)
	}
	for name, c := range map[string]struct {
		losses []float64
		acc    float64
	}{
		"nan loss":     {[]float64{2.3, math.NaN(), 0.4}, 0.97},
		"inf loss":     {[]float64{math.Inf(1)}, 0.97},
		"low accuracy": {[]float64{0.4}, accuracyFloor - 0.01},
		"nan accuracy": {[]float64{0.4}, math.NaN()},
		"no steps":     {nil, 1},
	} {
		if err := checkTraining(c.losses, c.acc, accuracyFloor); !errors.Is(err, errGate) {
			t.Errorf("%s accepted: %v", name, err)
		}
	}
}

func TestBitIdentityGateRejectsOneFlippedBit(t *testing.T) {
	piped := [][]float64{{0.25, -1.5}, {3, 4}}
	seq := [][]float64{{0.25, -1.5}, {3, 4}}
	if err := checkBitIdentical(piped, seq); err != nil {
		t.Fatalf("identical outputs rejected: %v", err)
	}
	seq[1][0] = math.Float64frombits(math.Float64bits(seq[1][0]) ^ 1)
	if err := checkBitIdentical(piped, seq); !errors.Is(err, errGate) {
		t.Fatalf("one-ulp difference accepted: %v", err)
	}
	if err := checkBitIdentical([][]float64{{1}}, [][]float64{{1, 2}}); !errors.Is(err, errGate) {
		t.Fatalf("length mismatch accepted: %v", err)
	}
}
