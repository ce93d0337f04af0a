// Package models builds the CNN graphs the paper evaluates — DenseNet-121,
// ResNet-50, VGG-16, and AlexNet — plus scaled-down variants small enough to
// execute numerically in tests and the CLIs. All builders produce baseline
// (unrestructured) graphs; internal/core's passes rewrite them.
package models

import (
	"fmt"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// DenseNetConfig parameterizes the DenseNet-BC family (Huang et al., 2017):
// Dense Blocks of composite layers (BN-ReLU-1×1 CONV-BN-ReLU-3×3 CONV), each
// CPL consuming the concatenation of every earlier feature map in its block.
type DenseNetConfig struct {
	Name         string
	Batch        int
	InputSize    int // square input resolution
	Classes      int
	GrowthRate   int   // k: channels each CPL contributes
	Bottleneck   int   // bottleneck width multiplier m (1×1 CONV outputs m·k)
	BlockSizes   []int // CPLs per Dense Block
	InitChannels int   // stem output channels
	StemKernel   int   // 7 for ImageNet-style, 3 for small inputs
	Compression  float64
}

// DenseNet121Config is the paper's primary model: 120 CONV layers + 1 FC,
// growth rate 32, bottleneck 4k, blocks of 6/12/24/16 CPLs, 224×224 input.
func DenseNet121Config(batch int) DenseNetConfig {
	return DenseNetConfig{
		Name: "densenet121", Batch: batch, InputSize: 224, Classes: 1000,
		GrowthRate: 32, Bottleneck: 4, BlockSizes: []int{6, 12, 24, 16},
		InitChannels: 64, StemKernel: 7, Compression: 0.5,
	}
}

// DenseNet169Config and friends are the deeper published variants; they
// differ from DenseNet-121 only in block sizes.
func DenseNet169Config(batch int) DenseNetConfig {
	c := DenseNet121Config(batch)
	c.Name = "densenet169"
	c.BlockSizes = []int{6, 12, 32, 32}
	return c
}

// DenseNet201Config is the 201-layer variant.
func DenseNet201Config(batch int) DenseNetConfig {
	c := DenseNet121Config(batch)
	c.Name = "densenet201"
	c.BlockSizes = []int{6, 12, 48, 32}
	return c
}

// TinyDenseNetConfig is a numerically executable DenseNet-BC: two blocks of
// two CPLs on 16×16 inputs. It exercises every structural feature the full
// model has (dense connectivity, bottlenecks, a transition, boundary BNs).
func TinyDenseNetConfig(batch int) DenseNetConfig {
	return DenseNetConfig{
		Name: "tiny-densenet", Batch: batch, InputSize: 16, Classes: 10,
		GrowthRate: 8, Bottleneck: 4, BlockSizes: []int{2, 2},
		InitChannels: 16, StemKernel: 3, Compression: 0.5,
	}
}

// DenseNet builds the graph for a configuration.
func DenseNet(cfg DenseNetConfig) (*graph.Graph, error) {
	if len(cfg.BlockSizes) == 0 {
		return nil, fmt.Errorf("models: densenet needs at least one block")
	}
	if cfg.Compression <= 0 || cfg.Compression > 1 {
		return nil, fmt.Errorf("models: densenet compression %v out of (0,1]", cfg.Compression)
	}
	g := graph.New(cfg.Name)
	in := g.Input("input", tensor.Shape{cfg.Batch, 3, cfg.InputSize, cfg.InputSize})

	// Stem: 7×7/2 CONV + BN + ReLU + 3×3/2 max pool (ImageNet variant), or a
	// plain 3×3 CONV for small inputs.
	var cur *graph.Node
	var err error
	if cfg.StemKernel >= 7 {
		cur, err = g.Conv("stem.conv", in, layers.NewConv2D(3, cfg.InitChannels, cfg.StemKernel, 2, cfg.StemKernel/2), -1)
		if err != nil {
			return nil, err
		}
		cur, err = g.BN("stem.bn", cur, -1)
		if err != nil {
			return nil, err
		}
		cur = g.ReLU("stem.relu", cur, -1)
		cur, err = g.Pool("stem.pool", cur, layers.Pool2D{Kernel: 3, Stride: 2, Pad: 1, Max: true}, -1)
		if err != nil {
			return nil, err
		}
	} else {
		cur, err = g.Conv("stem.conv", in, layers.NewConv2D(3, cfg.InitChannels, cfg.StemKernel, 1, cfg.StemKernel/2), -1)
		if err != nil {
			return nil, err
		}
	}

	cpl := 0
	channels := cfg.InitChannels
	for bi, blockLen := range cfg.BlockSizes {
		feats := []*graph.Node{cur}
		for li := 0; li < blockLen; li++ {
			prefix := fmt.Sprintf("block%d.cpl%d", bi+1, li+1)
			var catIn *graph.Node
			if len(feats) == 1 {
				catIn = feats[0]
			} else {
				catIn, err = g.Concat(prefix+".concat", cpl, feats...)
				if err != nil {
					return nil, err
				}
			}
			inC := catIn.OutShape[1]
			bn1, err := g.BN(prefix+".bn1", catIn, cpl)
			if err != nil {
				return nil, err
			}
			r1 := g.ReLU(prefix+".relu1", bn1, cpl)
			c1, err := g.Conv(prefix+".conv1x1", r1, layers.NewConv2D(inC, cfg.Bottleneck*cfg.GrowthRate, 1, 1, 0), cpl)
			if err != nil {
				return nil, err
			}
			bn2, err := g.BN(prefix+".bn2", c1, cpl)
			if err != nil {
				return nil, err
			}
			r2 := g.ReLU(prefix+".relu2", bn2, cpl)
			c2, err := g.Conv(prefix+".conv3x3", r2, layers.NewConv2D(cfg.Bottleneck*cfg.GrowthRate, cfg.GrowthRate, 3, 1, 1), cpl)
			if err != nil {
				return nil, err
			}
			feats = append(feats, c2)
			channels = inC + cfg.GrowthRate
			cpl++
		}

		tail, err := g.Concat(fmt.Sprintf("block%d.concat", bi+1), -1, feats...)
		if err != nil {
			return nil, err
		}
		channels = tail.OutShape[1]
		cur = tail
		if bi < len(cfg.BlockSizes)-1 {
			// Transition: BN + ReLU + 1×1 CONV (compression) + 2×2 avg pool.
			prefix := fmt.Sprintf("trans%d", bi+1)
			outC := int(float64(channels) * cfg.Compression)
			bn, err := g.BN(prefix+".bn", cur, -1)
			if err != nil {
				return nil, err
			}
			r := g.ReLU(prefix+".relu", bn, -1)
			c, err := g.Conv(prefix+".conv", r, layers.NewConv2D(channels, outC, 1, 1, 0), -1)
			if err != nil {
				return nil, err
			}
			cur, err = g.Pool(prefix+".pool", c, layers.Pool2D{Kernel: 2, Stride: 2, Max: false}, -1)
			if err != nil {
				return nil, err
			}
			channels = outC
		}
	}

	// Head: BN + ReLU + global average pool + FC.
	bn, err := g.BN("head.bn", cur, -1)
	if err != nil {
		return nil, err
	}
	r := g.ReLU("head.relu", bn, -1)
	gap, err := g.GlobalPool("head.gap", r, -1)
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

// DenseNet121 builds the full-size model at the given mini-batch size.
func DenseNet121(batch int) (*graph.Graph, error) {
	return DenseNet(DenseNet121Config(batch))
}

// DenseNet169 builds the 169-layer variant.
func DenseNet169(batch int) (*graph.Graph, error) { return DenseNet(DenseNet169Config(batch)) }

// DenseNet201 builds the 201-layer variant.
func DenseNet201(batch int) (*graph.Graph, error) { return DenseNet(DenseNet201Config(batch)) }

// TinyDenseNet builds the scaled-down model used by tests and the CLIs.
func TinyDenseNet(batch int) (*graph.Graph, error) {
	return DenseNet(TinyDenseNetConfig(batch))
}
