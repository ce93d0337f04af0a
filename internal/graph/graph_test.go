package graph

import (
	"testing"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// buildChain constructs input → conv → bn → relu → conv, the canonical BNFF
// window, at a small scale.
func buildChain(t *testing.T) (*Graph, []*Node) {
	t.Helper()
	g := New("chain")
	in := g.Input("in", tensor.Shape{8, 3, 16, 16})
	c1, err := g.Conv("conv1", in, layers.NewConv2D(3, 16, 3, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.BN("bn", c1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := g.ReLU("relu", b, 0)
	c2, err := g.Conv("conv2", r, layers.NewConv2D(16, 8, 3, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, []*Node{in, c1, b, r, c2}
}

func TestBuilderShapes(t *testing.T) {
	g, nodes := buildChain(t)
	want := []tensor.Shape{
		{8, 3, 16, 16}, {8, 16, 16, 16}, {8, 16, 16, 16}, {8, 16, 16, 16}, {8, 8, 16, 16},
	}
	for i, n := range nodes {
		if !n.OutShape.Equal(want[i]) {
			t.Errorf("node %q shape %v, want %v", n.Name, n.OutShape, want[i])
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderErrors(t *testing.T) {
	g := New("bad")
	in := g.Input("in", tensor.Shape{2, 3, 8, 8})
	if _, err := g.Conv("c", in, layers.NewConv2D(4, 8, 3, 1, 1), 0); err == nil {
		t.Error("conv accepted mismatched channels")
	}
	fcIn := g.Input("fcin", tensor.Shape{2, 10})
	if _, err := g.BN("b", fcIn, 0); err == nil {
		t.Error("bn accepted rank-2 input")
	}
	if _, err := g.Pool("p", fcIn, layers.Pool2D{Kernel: 2, Stride: 2}, 0); err == nil {
		t.Error("pool accepted rank-2 input")
	}
	if _, err := g.Pool("p", in, layers.Pool2D{Kernel: 2, Stride: 2, Pad: 2, Max: true}, 0); err == nil {
		t.Error("pool accepted a pad past half its kernel")
	}
	if _, err := g.GlobalPool("gp", fcIn, 0); err == nil {
		t.Error("gap accepted rank-2 input")
	}
	if _, err := g.FC("fc", in, layers.FC{In: 10, Out: 4}, 0); err == nil {
		t.Error("fc accepted rank-4 input")
	}
	if _, err := g.Concat("cat", 0); err == nil {
		t.Error("concat accepted no inputs")
	}
	other := g.Input("other", tensor.Shape{2, 3, 4, 4})
	if _, err := g.Concat("cat2", 0, in, other); err == nil {
		t.Error("concat accepted mismatched spatial dims")
	}
	if _, err := g.EWS("e", in, other, 0); err == nil {
		t.Error("ews accepted shape mismatch")
	}
}

func TestConcatShape(t *testing.T) {
	g := New("cat")
	a := g.Input("a", tensor.Shape{2, 3, 8, 8})
	b := g.Input("b", tensor.Shape{2, 5, 8, 8})
	c, err := g.Concat("cat", 0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.OutShape.Equal(tensor.Shape{2, 8, 8, 8}) {
		t.Errorf("concat shape %v", c.OutShape)
	}
}

func TestConsumersAndOutputs(t *testing.T) {
	g, nodes := buildChain(t)
	cons := g.Consumers()
	if len(cons[nodes[1].ID]) != 1 || cons[nodes[1].ID][0] != nodes[2] {
		t.Error("conv1 consumer should be bn")
	}
	outs := g.Outputs()
	if len(outs) != 1 || outs[0] != nodes[4] {
		t.Errorf("outputs = %v", outs)
	}
}

func TestValidateCatchesDeadInput(t *testing.T) {
	g, nodes := buildChain(t)
	nodes[2].Dead = true
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted consumption of dead node")
	}
}

func TestNormalizeTopoSort(t *testing.T) {
	g, nodes := buildChain(t)
	// Append a node whose input is early — stays valid after Normalize.
	extra := &Node{Kind: OpReLU, Name: "late", Inputs: []*Node{nodes[1]}, OutShape: nodes[1].OutShape.Clone(), CPL: -1}
	g.AddNode(extra)
	if err := g.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// IDs must be consistent with position.
	for i, n := range g.Nodes {
		if n.ID != i {
			t.Errorf("node %q ID %d at position %d", n.Name, n.ID, i)
		}
	}
}

func TestNormalizeDetectsCycle(t *testing.T) {
	g, nodes := buildChain(t)
	nodes[1].Inputs = append(nodes[1].Inputs, nodes[4]) // conv1 depends on conv2
	if err := g.Normalize(); err == nil {
		t.Error("Normalize accepted a cycle")
	}
}

func TestCountKinds(t *testing.T) {
	g, _ := buildChain(t)
	k := g.CountKinds()
	if k[OpConv] != 2 || k[OpBN] != 1 || k[OpReLU] != 1 || k[OpInput] != 1 {
		t.Errorf("kind counts = %v", k)
	}
}

func TestLayerClassMapping(t *testing.T) {
	cases := map[OpKind]LayerClass{
		OpConv:       ClassConv,
		OpFC:         ClassConv,
		OpReLUConv:   ClassConv,
		OpBNReLUConv: ClassConv,
		OpBN:         ClassBN,
		OpSubBN1:     ClassBN,
		OpSubBN2:     ClassBN,
		OpReLU:       ClassReLU,
		OpPool:       ClassPool,
		OpGlobalPool: ClassPool,
		OpConcat:     ClassConcat,
		OpEWS:        ClassEWS,
		OpInput:      ClassOther,
	}
	for kind, want := range cases {
		n := &Node{Kind: kind}
		if got := n.Class(); got != want {
			t.Errorf("Class(%v) = %v, want %v", kind, got, want)
		}
	}
	if !ClassConv.IsConvClass() || ClassBN.IsConvClass() {
		t.Error("IsConvClass misclassifies")
	}
}

func TestKindAndClassStrings(t *testing.T) {
	if OpBNReLUConv.String() != "BNReLUConv" {
		t.Errorf("kind string = %q", OpBNReLUConv.String())
	}
	if OpKind(99).String() == "" {
		t.Error("out-of-range kind string empty")
	}
	if ClassConcat.String() != "Concat/Split" {
		t.Errorf("class string = %q", ClassConcat.String())
	}
	if LayerClass(99).String() == "" {
		t.Error("out-of-range class string empty")
	}
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Error("direction strings wrong")
	}
}
