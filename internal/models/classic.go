package models

import (
	"fmt"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// VGG16 builds the 13-CONV + 3-FC VGGNet (Simonyan & Zisserman, 2014) —
// one of Figure 1's "early, shallow" models whose time is CONV/FC-dominated.
// The original VGG has no batch normalization; local response normalization
// is omitted as in common practice.
func VGG16(batch int) (*graph.Graph, error) {
	g := graph.New("vgg16")
	cur := g.Input("input", tensor.Shape{batch, 3, 224, 224})

	plan := []struct {
		convs    int
		channels int
	}{
		{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512},
	}
	channels := 3
	var err error
	for si, stage := range plan {
		for ci := 0; ci < stage.convs; ci++ {
			name := fmt.Sprintf("stage%d.conv%d", si+1, ci+1)
			cur, err = g.Conv(name, cur, layers.NewConv2D(channels, stage.channels, 3, 1, 1), -1)
			if err != nil {
				return nil, err
			}
			cur = g.ReLU(name+".relu", cur, -1)
			channels = stage.channels
		}
		cur, err = g.Pool(fmt.Sprintf("stage%d.pool", si+1), cur, layers.Pool2D{Kernel: 2, Stride: 2, Max: true}, -1)
		if err != nil {
			return nil, err
		}
	}

	// 7×7×512 → flatten → 4096 → 4096 → 1000.
	gap, err := g.Flatten("flatten", cur, -1)
	if err != nil {
		return nil, err
	}
	fc1, err := g.FC("fc1", gap, layers.FC{In: 512 * 7 * 7, Out: 4096}, -1)
	if err != nil {
		return nil, err
	}
	r1 := g.ReLU("fc1.relu", fc1, -1)
	d1, err := g.Dropout("fc1.drop", r1, 0.5, -1)
	if err != nil {
		return nil, err
	}
	fc2, err := g.FC("fc2", d1, layers.FC{In: 4096, Out: 4096}, -1)
	if err != nil {
		return nil, err
	}
	r2 := g.ReLU("fc2.relu", fc2, -1)
	d2, err := g.Dropout("fc2.drop", r2, 0.5, -1)
	if err != nil {
		return nil, err
	}
	fc3, err := g.FC("fc3", d2, layers.FC{In: 4096, Out: 1000}, -1)
	if err != nil {
		return nil, err
	}
	g.Output = fc3
	return g, g.Validate()
}

// AlexNet builds the 5-CONV + 3-FC AlexNet (Krizhevsky et al., 2012), the
// other shallow reference point in Figure 1. LRN layers are omitted;
// dropout regularizes the FC head as in the original.
func AlexNet(batch int) (*graph.Graph, error) {
	g := graph.New("alexnet")
	cur := g.Input("input", tensor.Shape{batch, 3, 224, 224})

	type convSpec struct {
		name           string
		out, k, s, pad int
		pool           bool
	}
	specs := []convSpec{
		{"conv1", 64, 11, 4, 2, true},
		{"conv2", 192, 5, 1, 2, true},
		{"conv3", 384, 3, 1, 1, false},
		{"conv4", 256, 3, 1, 1, false},
		{"conv5", 256, 3, 1, 1, true},
	}
	channels := 3
	var err error
	for _, s := range specs {
		cur, err = g.Conv(s.name, cur, layers.NewConv2D(channels, s.out, s.k, s.s, s.pad), -1)
		if err != nil {
			return nil, err
		}
		cur = g.ReLU(s.name+".relu", cur, -1)
		if s.pool {
			cur, err = g.Pool(s.name+".pool", cur, layers.Pool2D{Kernel: 3, Stride: 2, Max: true}, -1)
			if err != nil {
				return nil, err
			}
		}
		channels = s.out
	}

	flat, err := g.Flatten("flatten", cur, -1)
	if err != nil {
		return nil, err
	}
	inF := flat.OutShape[1]
	d0, err := g.Dropout("fc1.drop", flat, 0.5, -1)
	if err != nil {
		return nil, err
	}
	fc1, err := g.FC("fc1", d0, layers.FC{In: inF, Out: 4096}, -1)
	if err != nil {
		return nil, err
	}
	r1 := g.ReLU("fc1.relu", fc1, -1)
	d1, err := g.Dropout("fc2.drop", r1, 0.5, -1)
	if err != nil {
		return nil, err
	}
	fc2, err := g.FC("fc2", d1, layers.FC{In: 4096, Out: 4096}, -1)
	if err != nil {
		return nil, err
	}
	r2 := g.ReLU("fc2.relu", fc2, -1)
	fc3, err := g.FC("fc3", r2, layers.FC{In: 4096, Out: 1000}, -1)
	if err != nil {
		return nil, err
	}
	g.Output = fc3
	return g, g.Validate()
}

// TinyCNN builds a minimal CONV-BN-ReLU-CONV-BN-ReLU-CONV network — the
// smallest graph containing both an interior BN (full BNFF) and a stem BN.
// Used by the README quickstart, the smoke scripts and the fastest
// equivalence tests.
func TinyCNN(batch, size, classes int) (*graph.Graph, error) {
	g := graph.New("tiny-cnn")
	in := g.Input("input", tensor.Shape{batch, 3, size, size})
	c1, err := g.Conv("conv1", in, layers.NewConv2D(3, 8, 3, 1, 1), 0)
	if err != nil {
		return nil, err
	}
	b1, err := g.BN("bn1", c1, 0)
	if err != nil {
		return nil, err
	}
	r1 := g.ReLU("relu1", b1, 0)
	c2, err := g.Conv("conv2", r1, layers.NewConv2D(8, 16, 3, 1, 1), 0)
	if err != nil {
		return nil, err
	}
	b2, err := g.BN("bn2", c2, 0)
	if err != nil {
		return nil, err
	}
	r2 := g.ReLU("relu2", b2, 0)
	c3, err := g.Conv("conv3", r2, layers.NewConv2D(16, 16, 3, 1, 1), 0)
	if err != nil {
		return nil, err
	}
	gap, err := g.GlobalPool("gap", c3, -1)
	if err != nil {
		return nil, err
	}
	fc, err := g.FC("fc", gap, layers.FC{In: 16, Out: classes}, -1)
	if err != nil {
		return nil, err
	}
	g.Output = fc
	return g, g.Validate()
}
