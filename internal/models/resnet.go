package models

import (
	"fmt"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// ResNetConfig parameterizes the bottleneck-block ResNet family
// (He et al., 2016): stages of 1×1-3×3-1×1 residual blocks joined to the
// shortcut path by element-wise sums.
type ResNetConfig struct {
	Name       string
	Batch      int
	InputSize  int
	Classes    int
	StageLens  []int // blocks per stage
	StageMid   []int // 3×3 channel width per stage; block output is 4× this
	InitStride int   // stem conv stride (2 for ImageNet, 1 for small inputs)
	StemKernel int
}

// ResNet50Config is the paper's secondary model: stages of 3/4/6/3
// bottleneck blocks, 224×224 input, 1000 classes.
func ResNet50Config(batch int) ResNetConfig {
	return ResNetConfig{
		Name: "resnet50", Batch: batch, InputSize: 224, Classes: 1000,
		StageLens: []int{3, 4, 6, 3}, StageMid: []int{64, 128, 256, 512},
		InitStride: 2, StemKernel: 7,
	}
}

// TinyResNetConfig is a numerically executable two-stage bottleneck ResNet
// on 16×16 inputs, exercising shortcuts, downsampling, and the
// BN-before-EWS pattern that limits fusion.
func TinyResNetConfig(batch int) ResNetConfig {
	return ResNetConfig{
		Name: "tiny-resnet", Batch: batch, InputSize: 16, Classes: 10,
		StageLens: []int{1, 1}, StageMid: []int{8, 16},
		InitStride: 1, StemKernel: 3,
	}
}

// ResNet builds the graph for a configuration.
func ResNet(cfg ResNetConfig) (*graph.Graph, error) {
	if len(cfg.StageLens) == 0 || len(cfg.StageLens) != len(cfg.StageMid) {
		return nil, fmt.Errorf("models: resnet stage config mismatch: %v vs %v", cfg.StageLens, cfg.StageMid)
	}
	g := graph.New(cfg.Name)
	in := g.Input("input", tensor.Shape{cfg.Batch, 3, cfg.InputSize, cfg.InputSize})

	stem := cfg.InitChannels()
	cur, err := g.Conv("stem.conv", in, layers.NewConv2D(3, stem, cfg.StemKernel, cfg.InitStride, cfg.StemKernel/2), -1)
	if err != nil {
		return nil, err
	}
	cur, err = g.BN("stem.bn", cur, -1)
	if err != nil {
		return nil, err
	}
	cur = g.ReLU("stem.relu", cur, -1)
	if cfg.InitStride > 1 {
		cur, err = g.Pool("stem.pool", cur, layers.Pool2D{Kernel: 3, Stride: 2, Pad: 1, Max: true}, -1)
		if err != nil {
			return nil, err
		}
	}

	channels := stem
	block := 0
	for si, stageLen := range cfg.StageLens {
		mid := cfg.StageMid[si]
		out := 4 * mid
		for bi := 0; bi < stageLen; bi++ {
			stride := 1
			if bi == 0 && si > 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("stage%d.block%d", si+1, bi+1)

			// Main path: 1×1 (stride) → BN → ReLU → 3×3 → BN → ReLU → 1×1 → BN.
			c1, err := g.Conv(prefix+".conv1", cur, layers.NewConv2D(channels, mid, 1, stride, 0), block)
			if err != nil {
				return nil, err
			}
			b1, err := g.BN(prefix+".bn1", c1, block)
			if err != nil {
				return nil, err
			}
			r1 := g.ReLU(prefix+".relu1", b1, block)
			c2, err := g.Conv(prefix+".conv2", r1, layers.NewConv2D(mid, mid, 3, 1, 1), block)
			if err != nil {
				return nil, err
			}
			b2, err := g.BN(prefix+".bn2", c2, block)
			if err != nil {
				return nil, err
			}
			r2 := g.ReLU(prefix+".relu2", b2, block)
			c3, err := g.Conv(prefix+".conv3", r2, layers.NewConv2D(mid, out, 1, 1, 0), block)
			if err != nil {
				return nil, err
			}
			b3, err := g.BN(prefix+".bn3", c3, block)
			if err != nil {
				return nil, err
			}

			// Shortcut: identity, or projection when shape changes.
			shortcut := cur
			if channels != out || stride != 1 {
				sc, err := g.Conv(prefix+".downsample.conv", cur, layers.NewConv2D(channels, out, 1, stride, 0), block)
				if err != nil {
					return nil, err
				}
				shortcut, err = g.BN(prefix+".downsample.bn", sc, block)
				if err != nil {
					return nil, err
				}
			}

			sum, err := g.EWS(prefix+".ews", b3, shortcut, block)
			if err != nil {
				return nil, err
			}
			cur = g.ReLU(prefix+".relu3", sum, block)
			channels = out
			block++
		}
	}

	gap, err := g.GlobalPool("head.gap", cur, -1)
	if err != nil {
		return nil, err
	}
	fc, err := g.FC("head.fc", gap, layers.FC{In: channels, Out: cfg.Classes}, -1)
	if err != nil {
		return nil, err
	}
	g.Output = fc
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// InitChannels returns the stem width (the first stage's 3×3 width).
func (cfg ResNetConfig) InitChannels() int { return cfg.StageMid[0] }

// ResNet50 builds the full-size model at the given mini-batch size.
func ResNet50(batch int) (*graph.Graph, error) { return ResNet(ResNet50Config(batch)) }

// TinyResNet builds the scaled-down model used by tests and the CLIs.
func TinyResNet(batch int) (*graph.Graph, error) { return ResNet(TinyResNetConfig(batch)) }
