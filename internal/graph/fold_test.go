package graph

import (
	"testing"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// buildConvBNChain is input → conv → bn → relu → conv(out): the first CONV→BN
// pair folds, the trailing CONV is the graph output and must be left alone.
func buildConvBNChain(t *testing.T) *Graph {
	t.Helper()
	g := New("fold-chain")
	in := g.Input("in", tensor.Shape{2, 3, 8, 8})
	conv := layers.Conv2D{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	c1, err := g.Conv("c1", in, conv, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := g.BN("b1", c1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1 := g.ReLU("r1", b1, 0)
	conv2 := conv
	conv2.InChannels = 4
	c2, err := g.Conv("c2", r1, conv2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Output = c2
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFoldBNRewiresConsumers(t *testing.T) {
	g := buildConvBNChain(t)
	pairs, err := FoldBN(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].Conv.Name != "c1" {
		t.Fatalf("folded pairs %v, want exactly c1", pairs)
	}
	if !pairs[0].Conv.FoldedBias {
		t.Error("folded CONV not marked FoldedBias")
	}
	kinds := g.CountKinds()
	if kinds[OpBN] != 0 {
		t.Errorf("%d BN nodes survive, want 0", kinds[OpBN])
	}
	for _, n := range g.Live() {
		if n.Name == "r1" && n.Inputs[0].Name != "c1" {
			t.Errorf("ReLU reads %q, want the folded CONV", n.Inputs[0].Name)
		}
	}
}

// The trailing CONV is the designated output: folding a BN into it would
// change the graph's advertised output node, so it must not fold even if a
// BN were appended downstream of the output marker.
func TestFoldBNSkipsOutputConv(t *testing.T) {
	g := buildConvBNChain(t)
	bn, err := g.BN("b2", g.Output, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = bn // g.Output still points at c2
	pairs, err := FoldBN(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		if pr.Conv.Name == "c2" {
			t.Error("output CONV folded")
		}
	}
}

// A folded BN that was the graph output retargets Output to the CONV.
func TestFoldBNRetargetsOutput(t *testing.T) {
	g := New("fold-out")
	in := g.Input("in", tensor.Shape{1, 3, 4, 4})
	conv := layers.Conv2D{InChannels: 3, OutChannels: 2, KernelH: 1, KernelW: 1, Stride: 1}
	c, err := g.Conv("c", in, conv, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.BN("b", c, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.Output = b
	if _, err := FoldBN(g); err != nil {
		t.Fatal(err)
	}
	if g.Output.Name != "c" {
		t.Errorf("output is %q after folding the output BN, want the CONV", g.Output.Name)
	}
}
