package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"trident/internal/dataset"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	// Train a network, save, reload on fresh hardware, compare behaviour.
	data := dataset.Blobs(100, 2, 4, 0.1, 3)
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}, LearningRate: 0.1}
	net, err := NewNetwork(cfg, LayerSpec{In: 4, Out: 8, Activate: true}, LayerSpec{In: 8, Out: 2})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 5; e++ {
		for i := range data.Inputs {
			if _, err := net.TrainSample(data.Inputs[i].Data(), data.Labels[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNetwork(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same predictions on every sample, and near-identical logits (both
	// run quantized banks from the same master weights).
	for i := range data.Inputs {
		a, err := net.Forward(data.Inputs[i].Data())
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Forward(data.Inputs[i].Data())
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-9 {
				t.Fatalf("sample %d logit %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestSaveFormatStable(t *testing.T) {
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}}
	net, err := NewNetwork(cfg, LayerSpec{In: 2, Out: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"version"`, "trident-state-1", `"weights"`, `"activate"`} {
		if !strings.Contains(s, want) {
			t.Errorf("state missing %q:\n%s", want, s)
		}
	}
}

func TestLoadNetworkValidation(t *testing.T) {
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}}
	cases := map[string]string{
		"garbage":        `{not json`,
		"wrong version":  `{"version":"v9","layers":[{"in":2,"out":2,"weights":[[0,0],[0,0]]}]}`,
		"no layers":      `{"version":"trident-state-1","layers":[]}`,
		"bad dims":       `{"version":"trident-state-1","layers":[{"in":0,"out":2,"weights":[]}]}`,
		"short rows":     `{"version":"trident-state-1","layers":[{"in":2,"out":2,"weights":[[0,0]]}]}`,
		"short row cols": `{"version":"trident-state-1","layers":[{"in":2,"out":2,"weights":[[0],[0,0]]}]}`,
	}
	for name, payload := range cases {
		if _, err := LoadNetwork(strings.NewReader(payload), cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestReplicateBitIdentical pins the replica fan-out contract the serving
// router depends on: Replicate builds a twin from the trained snapshot on
// fresh hardware whose classifications are bit-identical to the source,
// and whose banks are fully independent afterwards — masking rows on one
// replica must not leak into a sibling.
func TestReplicateBitIdentical(t *testing.T) {
	data := dataset.Blobs(120, 3, 5, 0.1, 7)
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}, LearningRate: 0.1}
	net, err := NewNetwork(cfg, LayerSpec{In: 5, Out: 10, Activate: true}, LayerSpec{In: 10, Out: 3})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		for i := range data.Inputs {
			if _, err := net.TrainSample(data.Inputs[i].Data(), data.Labels[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if net.Config().LearningRate != cfg.LearningRate {
		t.Fatalf("Config() = %+v, want the construction config", net.Config())
	}
	repA, err := net.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	repB, err := net.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data.Inputs {
		want, err := net.Predict(data.Inputs[i].Data())
		if err != nil {
			t.Fatal(err)
		}
		for ri, rep := range []*Network{repA, repB} {
			got, err := rep.Predict(data.Inputs[i].Data())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("replica %d sample %d: class %d, source %d", ri, i, got, want)
			}
		}
	}
	// Independence: degrading one replica leaves its siblings untouched.
	masked := false
	repA.ForEachPE(func(_, _, _ int, pe *PE) {
		if !masked {
			if err := pe.MaskRow(0); err != nil {
				t.Errorf("mask row: %v", err)
			}
			masked = true
		}
	})
	if repA.MaskedRowCount() != 1 {
		t.Fatalf("replica A masked rows %d, want 1", repA.MaskedRowCount())
	}
	if net.MaskedRowCount() != 0 || repB.MaskedRowCount() != 0 {
		t.Fatalf("mask leaked across replicas: source %d, sibling %d",
			net.MaskedRowCount(), repB.MaskedRowCount())
	}
}

// TestLoadClampsWeights: out-of-range weights in a state file saturate to
// the physical [-1, 1] attenuator range.
func TestLoadClampsWeights(t *testing.T) {
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}}
	payload := `{"version":"trident-state-1","layers":[{"in":2,"out":1,"weights":[[5,-5]]}]}`
	net, err := LoadNetwork(strings.NewReader(payload), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := net.Layers()[0].Weights()
	if w[0][0] != 1 || w[0][1] != -1 {
		t.Errorf("weights = %v, want clamped to ±1", w[0])
	}
}

// FuzzLoadNetwork hardens the state decoder, the trust boundary a deployed
// device reads its weights through: any byte input must yield a network or
// an error, never a panic, and a network that decodes must survive one
// forward pass with finite outputs of the declared width.
func FuzzLoadNetwork(f *testing.F) {
	cfg := NetworkConfig{PE: PEConfig{Rows: 8, Cols: 8, DisableNoise: true}}
	net, err := NewNetwork(cfg, LayerSpec{In: 3, Out: 4, Activate: true}, LayerSpec{In: 4, Out: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":"trident-state-1","layers":[{"in":2,"out":1,"weights":[[5,-5]]}]}`))
	f.Add([]byte(`{"version":"trident-state-1","layers":[{"in":1,"out":9,"activate":true,"weights":[[1],[0],[0],[0],[0],[0],[0],[0],[-1]]},{"in":9,"out":1,"weights":[[1,1,1,1,1,1,1,1,1]]}]}`))
	f.Add([]byte(`{"version":"trident-state-1","layers":[{"in":2,"out":2,"weights":[[0],[0,0]]}]}`))
	f.Add([]byte(`{"version":"trident-state-1","layers":[{"in":-1,"out":2}]}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := LoadNetwork(bytes.NewReader(data), cfg)
		if err != nil {
			return
		}
		x := make([]float64, net.InputSize())
		for i := range x {
			x[i] = 0.5 - float64(i%3)*0.5
		}
		y, err := net.Forward(x)
		if err != nil {
			t.Fatalf("forward on a decoded network: %v", err)
		}
		if len(y) != net.OutputSize() {
			t.Fatalf("forward output %d values, want %d", len(y), net.OutputSize())
		}
		for i, v := range y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("output[%d] = %v, want finite", i, v)
			}
		}
	})
}
