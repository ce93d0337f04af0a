package graph

import (
	"testing"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// featureSweeps counts the feature-map sweeps of a cost (the paper's grey
// boxes; weight traffic excluded).
func featureSweeps(c OpCost) int {
	n := 0
	for _, s := range c.Sweeps {
		if s.Kind == SweepFeatureMap {
			n++
		}
	}
	return n
}

func featureBytes(c OpCost) int64 {
	var b int64
	for _, s := range c.Sweeps {
		if s.Kind == SweepFeatureMap {
			b += s.Bytes
		}
	}
	return b
}

func mkNode(t *testing.T, kind OpKind, inShape tensor.Shape) *Node {
	t.Helper()
	in := &Node{Kind: OpInput, Name: "in", OutShape: inShape}
	return &Node{Kind: kind, Name: "n", Inputs: []*Node{in}, OutShape: inShape.Clone(), CPL: -1}
}

func TestBNForwardSweepCounts(t *testing.T) {
	shape := tensor.Shape{8, 16, 14, 14}
	n := mkNode(t, OpBN, shape)
	n.BN = &BNAttr{Channels: 16, ParamName: "bn"}
	c, err := n.ForwardCost()
	if err != nil {
		t.Fatal(err)
	}
	// Baseline BN forward: 3 reads + 1 write (Figure 5a: I2, I3, I4, O2).
	if got := featureSweeps(c); got != 4 {
		t.Errorf("baseline BN forward sweeps = %d, want 4", got)
	}
	n.BN.MVF = true
	c, _ = n.ForwardCost()
	// MVF merges the mean and variance sweeps: 2 reads + 1 write.
	if got := featureSweeps(c); got != 3 {
		t.Errorf("MVF BN forward sweeps = %d, want 3", got)
	}
}

func TestBNBackwardSweepCounts(t *testing.T) {
	n := mkNode(t, OpBN, tensor.Shape{8, 16, 14, 14})
	n.BN = &BNAttr{Channels: 16, ParamName: "bn"}
	c, err := n.BackwardCost()
	if err != nil {
		t.Fatal(err)
	}
	// Five sweeps — exactly what the paper says BNFF removes per BN layer.
	if got := featureSweeps(c); got != 5 {
		t.Errorf("baseline BN backward sweeps = %d, want 5", got)
	}
}

func TestFigure5ForwardReduction(t *testing.T) {
	// Paper: "three memory sweeps (O1, I2, I3) are reduced into one (O1') at
	// the first fused layer, and five (I4, I5, I6, O2, O3) into two
	// (I2', O2') at the second fused layer."
	shape := tensor.Shape{8, 16, 14, 14}
	conv := layers.NewConv2D(16, 16, 3, 1, 1)

	// First fused layer: CONV write + BN mean read + BN var read (3)
	// become the single write of the stats-decorated CONV (1).
	convNode := mkNode(t, OpConv, shape)
	convNode.Conv = &conv
	cBase, _ := convNode.ForwardCost()
	baseWrites := 0
	for _, s := range cBase.Sweeps {
		if s.Write && s.Kind == SweepFeatureMap {
			baseWrites++
		}
	}
	bnReads := 2 // I2, I3 of the baseline BN statistics
	first := baseWrites + bnReads
	convNode.StatsOut = &BNAttr{Channels: 16, ParamName: "bn", MVF: true}
	cFused, _ := convNode.ForwardCost()
	fusedWrites := 0
	for _, s := range cFused.Sweeps {
		if s.Write && s.Kind == SweepFeatureMap {
			fusedWrites++
		}
	}
	if first != 3 || fusedWrites != 1 {
		t.Errorf("first fused layer: %d sweeps -> %d, want 3 -> 1", first, fusedWrites)
	}

	// Second fused layer: BN normalize read I4 + BN write O2 + ReLU read I5 +
	// ReLU write O3 + CONV2 read I6 (5) become I2' + O2' (2).
	fused := mkNode(t, OpBNReLUConv, shape)
	fused.Conv = &conv
	fused.BN = &BNAttr{Channels: 16, ParamName: "bn", MVF: true}
	fused.StatsFrom = convNode
	cf, err := fused.ForwardCost()
	if err != nil {
		t.Fatal(err)
	}
	// Exclude the CONV2 ofmap write (O4, present in both worlds).
	got := featureSweeps(cf) - 1
	if got != 2 {
		t.Errorf("second fused layer sweeps = %d, want 2 (I2', O2')", got)
	}
}

func TestRCFEliminatesReLUSweeps(t *testing.T) {
	shape := tensor.Shape{8, 16, 14, 14}
	conv := layers.NewConv2D(16, 16, 3, 1, 1)

	relu := mkNode(t, OpReLU, shape)
	convN := mkNode(t, OpConv, shape)
	convN.Conv = &conv
	fused := mkNode(t, OpReLUConv, shape)
	fused.Conv = &conv

	rf, _ := relu.ForwardCost()
	cf, _ := convN.ForwardCost()
	ff, _ := fused.ForwardCost()
	if featureSweeps(ff) != featureSweeps(cf) {
		t.Error("RCF forward must cost the same sweeps as the bare conv")
	}
	if featureSweeps(rf) != 2 {
		t.Errorf("ReLU forward sweeps = %d, want 2", featureSweeps(rf))
	}

	rb, _ := relu.BackwardCost()
	cb, _ := convN.BackwardCost()
	fb, _ := fused.BackwardCost()
	if featureSweeps(fb) != featureSweeps(cb) {
		t.Error("RCF backward must cost the same sweeps as the bare conv")
	}
	if featureSweeps(rb) != 3 {
		t.Errorf("ReLU backward sweeps = %d, want 3", featureSweeps(rb))
	}
}

func TestICFRemovesBoundarySweeps(t *testing.T) {
	shape := tensor.Shape{8, 32, 14, 14}
	sub := mkNode(t, OpSubBN1, shape)
	sub.BN = &BNAttr{Channels: 32, ParamName: "bn", MVF: true}
	fwd, _ := sub.ForwardCost()
	bwd, _ := sub.BackwardCost()
	if featureSweeps(fwd) != 1 || featureSweeps(bwd) != 3 {
		t.Errorf("boundary sub-BN1 sweeps = %d fwd / %d bwd, want 1/3",
			featureSweeps(fwd), featureSweeps(bwd))
	}
	sub.BN.ICF = true
	fwd, _ = sub.ForwardCost()
	bwd, _ = sub.BackwardCost()
	if featureSweeps(fwd) != 0 || featureSweeps(bwd) != 0 {
		t.Errorf("ICF sub-BN1 sweeps = %d fwd / %d bwd, want 0/0",
			featureSweeps(fwd), featureSweeps(bwd))
	}
}

func TestConvBackwardRoughlyDoublesTraffic(t *testing.T) {
	// Paper §3.2: backward CONV needs ~2× the computations and accesses.
	n := mkNode(t, OpConv, tensor.Shape{8, 16, 14, 14})
	conv := layers.NewConv2D(16, 16, 3, 1, 1)
	n.Conv = &conv
	f, _ := n.ForwardCost()
	b, _ := n.BackwardCost()
	if b.FLOPs != 2*f.FLOPs {
		t.Errorf("conv backward FLOPs = %d, want 2x forward %d", b.FLOPs, f.FLOPs)
	}
	if fb, bb := featureBytes(f), featureBytes(b); bb != 2*fb {
		t.Errorf("conv backward feature bytes = %d, want 2x forward %d", bb, fb)
	}
}

func TestTrainingCostsOrderAndSplit(t *testing.T) {
	// A fan-out of 2 must add a synthetic Split cost on the backward pass.
	g := New("fanout")
	in := g.Input("in", tensor.Shape{4, 8, 8, 8})
	r1 := g.ReLU("r1", in, -1)
	r2a := g.ReLU("r2a", r1, -1)
	r2b := g.ReLU("r2b", r1, -1)
	cat, err := g.Concat("cat", -1, r2a, r2b)
	if err != nil {
		t.Fatal(err)
	}
	_ = cat
	costs, err := g.TrainingCosts()
	if err != nil {
		t.Fatal(err)
	}
	// Forward costs first, in topological order.
	var split *OpCost
	fwdSeen := 0
	for i := range costs {
		c := &costs[i]
		if c.Dir == Forward {
			if split != nil {
				t.Error("forward cost after backward began")
			}
			fwdSeen++
		}
		if c.Synthetic {
			split = c
		}
	}
	if fwdSeen != 5 {
		t.Errorf("forward cost count = %d, want 5", fwdSeen)
	}
	if split == nil {
		t.Fatal("no synthetic Split cost for fan-out node")
	}
	if split.Node != r1 || split.Dir != Backward {
		t.Error("Split cost attached to wrong node or direction")
	}
	// k reads + 1 write of r1's map.
	if got := featureSweeps(*split); got != 3 {
		t.Errorf("split backward sweeps = %d, want 3", got)
	}
}

func TestPassCosts(t *testing.T) {
	g, _ := buildChain(t)
	fwd, err := g.PassCosts(Forward)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := g.PassCosts(Backward)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd) != 5 || len(bwd) != 5 {
		t.Errorf("pass cost counts = %d fwd / %d bwd, want 5/5", len(fwd), len(bwd))
	}
	for _, c := range fwd {
		if c.Dir != Forward {
			t.Error("forward pass contains backward cost")
		}
	}
}

func TestWeightBytes(t *testing.T) {
	conv := layers.NewConv2D(64, 128, 3, 1, 1)
	n := mkNode(t, OpConv, tensor.Shape{1, 64, 8, 8})
	n.Conv = &conv
	if got, want := n.weightBytes(), int64(4*128*64*9); got != want {
		t.Errorf("conv weight bytes = %d, want %d", got, want)
	}
	fcn := &Node{Kind: OpFC, FC: &layers.FC{In: 4096, Out: 1000}}
	if got, want := fcn.weightBytes(), int64(4*4096*1000); got != want {
		t.Errorf("fc weight bytes = %d, want %d", got, want)
	}
	if (&Node{Kind: OpReLU}).weightBytes() != 0 {
		t.Error("relu has weight bytes")
	}
}

func TestCostErrorsOnUnknownKind(t *testing.T) {
	n := &Node{Kind: opKindCount, Name: "x", OutShape: tensor.Shape{1, 1, 1, 1}}
	if _, err := n.ForwardCost(); err == nil {
		t.Error("ForwardCost accepted unknown kind")
	}
	if _, err := n.BackwardCost(); err == nil {
		t.Error("BackwardCost accepted unknown kind")
	}
}
