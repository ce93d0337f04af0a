package core

import (
	"testing"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/models"
	"bnff/internal/tensor"
)

// dropoutCNN builds conv-bn-relu-dropout-conv-bn-relu-conv with a dropout in
// the fusion path: the ReLU before the dropout must NOT fuse with the conv
// behind it, because a stochastic layer sits between them.
func dropoutCNN(t *testing.T, batch int) *graph.Graph {
	t.Helper()
	g := graph.New("dropout-cnn")
	in := g.Input("input", tensor.Shape{batch, 3, 8, 8})
	c1, err := g.Conv("conv1", in, layers.NewConv2D(3, 8, 3, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := g.BN("bn1", c1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1 := g.ReLU("relu1", b1, 0)
	dp, err := g.Dropout("drop1", r1, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := g.Conv("conv2", dp, layers.NewConv2D(8, 8, 3, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := g.BN("bn2", c2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2 := g.ReLU("relu2", b2, 0)
	c3, err := g.Conv("conv3", r2, layers.NewConv2D(8, 8, 3, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := g.GlobalPool("gap", c3, -1)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := g.FC("fc", gap, layers.FC{In: 8, Out: 4}, -1)
	if err != nil {
		t.Fatal(err)
	}
	g.Output = fc
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDropoutBlocksFusion(t *testing.T) {
	g := dropoutCNN(t, 4)
	if err := Restructure(g, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	k := g.CountKinds()
	// bn1's normalize side cannot absorb relu1→dropout→conv2: bn1 stays a
	// standalone SubBN2 and relu1 a standalone ReLU. bn2 fuses fully.
	if k[graph.OpSubBN2] != 1 {
		t.Errorf("SubBN2 count = %d, want 1 (bn1 blocked by dropout)", k[graph.OpSubBN2])
	}
	if k[graph.OpReLU] != 1 {
		t.Errorf("ReLU count = %d, want 1 (relu1 blocked by dropout)", k[graph.OpReLU])
	}
	if k[graph.OpBNReLUConv] != 1 {
		t.Errorf("BNReLUConv count = %d, want 1 (bn2 window)", k[graph.OpBNReLUConv])
	}
	if k[graph.OpDropout] != 1 {
		t.Errorf("Dropout count = %d, want 1 (untouched)", k[graph.OpDropout])
	}
}

// With synchronized mask streams, baseline and BNFF executors must remain
// equivalent even through the stochastic layer.
func TestDropoutScenarioEquivalence(t *testing.T) {
	base := dropoutCNN(t, 4)
	bnff := dropoutCNN(t, 4)
	if err := Restructure(bnff, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	e1, err := NewExecutor(base, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewExecutor(bnff, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.CopyParamsFrom(e1); err != nil {
		t.Fatal(err)
	}
	e1.dropRNG = tensor.NewRNG(1234)
	e2.dropRNG = tensor.NewRNG(1234)

	in := tensor.New(4, 3, 8, 8)
	tensor.NewRNG(5).FillNormal(in, 0, 1)
	y1, err := e1.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := e2.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(y1, y2, 1e-3, 1e-3) {
		d, _ := tensor.MaxAbsDiff(y1, y2)
		t.Errorf("dropout BNFF logits differ by %v", d)
	}
	dOut := tensor.New(y1.Shape()...)
	tensor.NewRNG(6).FillUniform(dOut, -1, 1)
	g1, err := e1.Backward(dOut)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e2.Backward(dOut)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range g1 {
		if !tensor.AllClose(a, g2[name], 2e-2, 2e-3) {
			d, _ := tensor.MaxAbsDiff(a, g2[name])
			t.Errorf("gradient %q differs by %v", name, d)
		}
	}
}

// The executor must hand a dropout's backward the generator state its
// forward drew the mask from. The reference is drawn in the test from a copy
// of the executor's generator taken before Forward: the dropout's output must
// be its input under that stored mask, and every gradient must equal, bit
// for bit, a second executor's whose dropout backward is handed that copy
// directly instead of what its forward returned.
func TestDropoutGradientsMatchStoredMask(t *testing.T) {
	e, err := NewExecutor(dropoutCNN(t, 4), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExecutor(dropoutCNN(t, 4), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	e.dropRNG = tensor.NewRNG(1234)
	before := *e.dropRNG
	ref.dropRNG = new(tensor.RNG)
	*ref.dropRNG = before

	in := tensor.New(4, 3, 8, 8)
	tensor.NewRNG(5).FillNormal(in, 0, 1)
	y, err := e.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Forward(in); err != nil {
		t.Fatal(err)
	}
	var drop *graph.Node
	for _, n := range e.G.Nodes {
		if n.Kind == graph.OpDropout {
			drop = n
		}
	}
	x, got := e.vals[drop.Inputs[0].ID], e.vals[drop.ID]
	mask, scale := before, float32(1/(1-drop.Dropout.Rate))
	for i, v := range x.Data {
		want := float32(0)
		if mask.Float64() >= drop.Dropout.Rate {
			want = v * scale
		}
		if got.Data[i] != want {
			t.Fatalf("dropout output[%d] = %v, want %v under the stored mask", i, got.Data[i], want)
		}
	}
	ref.dropFrom[drop.ID] = before

	dOut := tensor.New(y.Shape()...)
	tensor.NewRNG(6).FillUniform(dOut, -1, 1)
	grads, err := e.Backward(dOut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Backward(dOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(grads) != len(want) {
		t.Fatalf("%d gradients, reference has %d", len(grads), len(want))
	}
	for name, g := range want {
		if !bitEqual(grads[name], g) {
			d, _ := tensor.MaxAbsDiff(grads[name], g)
			t.Errorf("gradient %q differs from the stored-mask reference by %v", name, d)
		}
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	g := dropoutCNN(t, 2)
	ex, err := NewExecutor(g, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(2, 3, 8, 8)
	tensor.NewRNG(9).FillNormal(in, 0, 1)

	// Two training forwards differ (fresh masks each time)...
	y1, err := ex.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	y1 = y1.Clone()
	y2, err := ex.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(y1, y2.Clone()); d == 0 {
		t.Error("training-mode dropout produced identical outputs twice")
	}
	// ...inference forwards are deterministic.
	ex = inferenceOf(t, ex)
	z1, err := ex.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	z1 = z1.Clone()
	z2, err := ex.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(z1, z2); d != 0 {
		t.Errorf("inference-mode dropout not deterministic (diff %v)", d)
	}
}

func TestAlexNetVGGDropoutCosts(t *testing.T) {
	// The full-size classic models now carry dropout; the analytical plane
	// must price them without error.
	for _, name := range []string{"alexnet", "vgg16"} {
		g, err := models.Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if g.CountKinds()[graph.OpDropout] != 2 {
			t.Errorf("%s dropout count = %d, want 2", name, g.CountKinds()[graph.OpDropout])
		}
		if _, err := g.TrainingCosts(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
