package core

import (
	"bytes"
	"strings"
	"testing"

	"bnff/internal/graph"
	"bnff/internal/models"
	"bnff/internal/tensor"
)

// foldedCheckpoint trains a registry model briefly and returns its checkpoint
// plus the batch-N input shape, so fold tests load identical weights into
// unfolded and folded executors.
func foldedCheckpoint(t *testing.T, name string, batch int) ([]byte, tensor.Shape) {
	t.Helper()
	g, err := models.Build(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(g, WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	in := g.Nodes[0].OutShape
	trainBriefly(t, ex, in, 4)
	var buf bytes.Buffer
	if err := ex.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), in
}

// Every tiny registry model must produce (near) identical inference outputs
// folded and unfolded — the fold is a pure recompilation of the same math.
func TestFoldEquivalenceRegistry(t *testing.T) {
	for _, name := range models.Names() {
		if !strings.HasPrefix(name, "tiny-") {
			continue // full-size models are analytical-only
		}
		t.Run(name, func(t *testing.T) {
			const batch = 4
			ckpt, in := foldedCheckpoint(t, name, batch)

			gu, err := models.Build(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			unfolded, err := NewExecutor(gu, WithSeed(62), WithInference())
			if err != nil {
				t.Fatal(err)
			}
			if err := unfolded.Load(bytes.NewReader(ckpt)); err != nil {
				t.Fatal(err)
			}

			gf, err := models.Build(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			folded, err := NewExecutor(gf, WithSeed(63), WithFoldedBN())
			if err != nil {
				t.Fatal(err)
			}
			if err := folded.Load(bytes.NewReader(ckpt)); err != nil {
				t.Fatal(err)
			}
			if !folded.folded {
				t.Fatal("Load on a WithFoldedBN executor did not run the fold pass")
			}

			bnsBefore := gu.CountKinds()[graph.OpBN]
			bnsAfter := gf.CountKinds()[graph.OpBN]
			if bnsBefore > 0 && bnsAfter >= bnsBefore {
				t.Errorf("fold removed no BNs (%d before, %d after)", bnsBefore, bnsAfter)
			}

			x := tensor.New(in...)
			tensor.NewRNG(64).FillNormal(x, 0, 1)
			yu, err := unfolded.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			yf, err := folded.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.AllClose(yu, yf, 1e-3, 1e-3) {
				d, _ := tensor.MaxAbsDiff(yu, yf)
				t.Errorf("folded inference differs from unfolded by %v", d)
			}
		})
	}
}

// The structural rewrite must be complete over the whole registry: after
// FoldBN, no live BN may remain whose input is a plain single-consumer CONV.
func TestFoldStructureRegistry(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := models.Build(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			hadBN := g.CountKinds()[graph.OpBN] > 0
			pairs, err := graph.FoldBN(g)
			if err != nil {
				t.Fatal(err)
			}
			if hadBN && len(pairs) == 0 {
				t.Fatal("no CONV→BN pair folded; every BN-bearing registry model has at least one")
			}
			cons := g.Consumers()
			for _, n := range g.Live() {
				if n.Kind != graph.OpBN {
					continue
				}
				in := n.Inputs[0]
				if in.Kind == graph.OpConv && !in.FoldedBias && in != g.Output && len(cons[in.ID]) == 1 {
					t.Errorf("BN %q still consumes foldable CONV %q", n.Name, in.Name)
				}
			}
			for _, pr := range pairs {
				if !pr.Conv.FoldedBias {
					t.Errorf("folded CONV %q not marked FoldedBias", pr.Conv.Name)
				}
			}
		})
	}
}

// A BN fed by something other than a dedicated CONV (here: a pooling layer)
// must survive the fold and keep normalizing on running statistics.
func TestFoldKeepsUnfoldableBN(t *testing.T) {
	build := func(batch int) (*graph.Graph, error) {
		return models.TinyCNN(batch, 8, 4)
	}
	g, err := build(2)
	if err != nil {
		t.Fatal(err)
	}
	// Splice a second consumer onto the first CONV so its BN is unfoldable.
	var conv *graph.Node
	for _, n := range g.Live() {
		if n.Kind == graph.OpConv {
			conv = n
			break
		}
	}
	relu := g.ReLU("fan-out", conv, -1)
	_ = relu
	pairs, err := graph.FoldBN(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		if pr.Conv == conv {
			t.Fatal("fan-out CONV folded despite a second consumer")
		}
	}
	bns := g.CountKinds()[graph.OpBN]
	if bns == 0 {
		t.Fatal("the unfoldable BN disappeared")
	}
}

func TestFoldRequiresInference(t *testing.T) {
	g, _ := models.TinyCNN(2, 8, 4)
	ex, err := NewExecutor(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.FoldBN(); err == nil {
		t.Error("FoldBN allowed on a training-mode executor")
	}
}

func TestFoldIdempotent(t *testing.T) {
	ckpt, in := foldedCheckpoint(t, "tiny-cnn", 2)
	g, _ := models.TinyCNN(2, 8, 4)
	ex, err := NewExecutor(g, WithFoldedBN())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Load(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(in...)
	tensor.NewRNG(5).FillNormal(x, 0, 1)
	y1, err := ex.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y1 = y1.Clone()
	if err := ex.FoldBN(); err != nil {
		t.Fatalf("second FoldBN not a no-op: %v", err)
	}
	y2, err := ex.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(y1, y2); d != 0 {
		t.Errorf("re-folding changed the output by %v", d)
	}
}

// Folding is a baseline-graph compilation; restructured training graphs must
// be rejected, not silently half-folded.
func TestFoldRejectsRestructured(t *testing.T) {
	g, _ := models.TinyCNN(2, 8, 4)
	if err := Restructure(g, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.FoldBN(g); err == nil {
		t.Error("FoldBN accepted a restructured graph")
	}
}

// Folding deletes the absorbed BN parameters, so a folded executor no longer
// matches the unfolded checkpoint layout: re-loading must fail loudly.
func TestFoldedExecutorRejectsReload(t *testing.T) {
	ckpt, _ := foldedCheckpoint(t, "tiny-cnn", 2)
	g, _ := models.TinyCNN(2, 8, 4)
	ex, err := NewExecutor(g, WithFoldedBN())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Load(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Load(bytes.NewReader(ckpt)); err == nil {
		t.Error("re-load after folding succeeded; the fold is terminal")
	}
}

func benchInference(b *testing.B, fold bool) {
	const batch = 8
	g, err := models.TinyResNet(batch)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := NewExecutor(g, WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	in := g.Nodes[0].OutShape
	x := tensor.New(in...)
	tensor.NewRNG(8).FillNormal(x, 0, 1)
	if _, err := ex.Forward(x); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ex.Save(&buf); err != nil {
		b.Fatal(err)
	}

	g2, err := models.TinyResNet(batch)
	if err != nil {
		b.Fatal(err)
	}
	opt := WithInference()
	if fold {
		opt = WithFoldedBN()
	}
	run, err := NewExecutor(g2, opt)
	if err != nil {
		b.Fatal(err)
	}
	if err := run.Load(bytes.NewReader(buf.Bytes())); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferenceUnfolded(b *testing.B) { benchInference(b, false) }
func BenchmarkInferenceFolded(b *testing.B)   { benchInference(b, true) }
