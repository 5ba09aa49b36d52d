package core

import (
	"fmt"

	"trident/internal/tensor"
)

// DeepCNN is the multi-stage generalization of CNN: a stack of convolution
// layers, each with its kernel matrix resident in PCM-MRR banks and the GST
// activation applied per pixel, followed by global average pooling and a
// dense classifier — a thin sequential chain over the shared execution
// graph (see graph.go). The backward pass runs at every stage: per-pixel
// transpose passes through the resident kernel banks' compiled transpose
// view for the gradient flowing into the previous stage, and the kernel
// gradient contracted over pixels, with the im2col/col2im bookkeeping in
// the digital control unit.
type DeepCNN struct {
	*Graph
	stages  []*convStage
	head    *DenseLayer
	classes int
}

// convStage names one hardware convolution layer of the stack.
type convStage struct {
	spec   tensor.Conv2DSpec
	kernel *DenseLayer // OutC × (InC·KH·KW)
}

// NewDeepCNN builds the stack. Every spec must be ungrouped and each
// stage's input shape must equal the previous stage's output shape.
func NewDeepCNN(cfg NetworkConfig, specs []tensor.Conv2DSpec, classes int) (*DeepCNN, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: DeepCNN needs ≥1 conv stage")
	}
	if classes < 2 {
		return nil, fmt.Errorf("core: DeepCNN needs ≥2 classes (got %d)", classes)
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: stage %d: %w", i, err)
		}
		if s.Groups != 1 {
			return nil, fmt.Errorf("core: stage %d: DeepCNN supports groups=1", i)
		}
		if i > 0 {
			prev := specs[i-1]
			if s.InC != prev.OutC || s.InH != prev.OutH() || s.InW != prev.OutW() {
				return nil, fmt.Errorf("core: stage %d input [%d %d %d] does not match stage %d output [%d %d %d]",
					i, s.InC, s.InH, s.InW, i-1, prev.OutC, prev.OutH(), prev.OutW())
			}
		}
	}
	first := specs[0]
	g, err := NewGraph(cfg, first.InC, first.InH, first.InW)
	if err != nil {
		return nil, err
	}
	cur := g.Input()
	for i, s := range specs {
		cur = g.Conv(cur, s, 301+int64(i))
	}
	last := specs[len(specs)-1]
	gap := g.GlobalAvgPool(cur)
	out := g.Dense(gap, LayerSpec{In: last.OutC, Out: classes}, 401)
	if err := g.SetOutput(out); err != nil {
		return nil, fmt.Errorf("core: DeepCNN banks: %w", err)
	}
	d := &DeepCNN{Graph: g, head: g.layers[len(g.layers)-1], classes: classes}
	for i, s := range specs {
		d.stages = append(d.stages, &convStage{spec: s, kernel: g.layers[i]})
	}
	return d, nil
}

func (d *DeepCNN) checkShape(img *tensor.Tensor) error {
	first := d.stages[0].spec
	if img.Rank() != 3 || img.Dim(0) != first.InC || img.Dim(1) != first.InH || img.Dim(2) != first.InW {
		return fmt.Errorf("core: DeepCNN input shape %v, want [%d %d %d]",
			img.Shape(), first.InC, first.InH, first.InW)
	}
	return nil
}

// Forward runs one image through every hardware stage and returns logits.
func (d *DeepCNN) Forward(img *tensor.Tensor) ([]float64, error) {
	if err := d.checkShape(img); err != nil {
		return nil, err
	}
	return d.Graph.Forward(img.Data())
}

// Predict returns the argmax class.
func (d *DeepCNN) Predict(img *tensor.Tensor) (int, error) {
	if err := d.checkShape(img); err != nil {
		return 0, err
	}
	return d.Graph.Predict(img.Data())
}

// TrainSample runs one full in-situ step through every stage.
func (d *DeepCNN) TrainSample(img *tensor.Tensor, label int) (float64, error) {
	if err := d.checkShape(img); err != nil {
		return 0, err
	}
	return d.Graph.TrainSample(img.Data(), label)
}

// Ledger merges every stage's and the head's PE ledgers, head first — the
// driver's historical merge order, preserved for bit-identical energy
// totals.
func (d *DeepCNN) Ledger() *Ledger {
	layers := []*DenseLayer{d.head}
	for _, st := range d.stages {
		layers = append(layers, st.kernel)
	}
	return mergeTileLedgers(layers)
}

// Stages returns the number of convolution stages.
func (d *DeepCNN) Stages() int { return len(d.stages) }
