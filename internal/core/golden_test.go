package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bnff/internal/models"
	"bnff/internal/tensor"
	"bnff/internal/workload"
)

// goldenDataset is the synthetic workload matched to a model exactly as
// scenario.Spec.Dataset builds it at seed 42: class count and image geometry
// from the model, noise 0.3, data seed 43.
func goldenDataset(t *testing.T, model string) *workload.Dataset {
	t.Helper()
	g, err := models.Build(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := g.Nodes[0].OutShape
	ds, err := workload.New(workload.Config{
		Classes:  g.Output.OutShape[1],
		Channels: in[1],
		Size:     in[2],
		Noise:    0.3,
		Seed:     43,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// goldenCheckpoint is a seed-42 model whose running statistics tracked four
// forwards of batch-4 dataset draws.
func goldenCheckpoint(t *testing.T, model string) []byte {
	t.Helper()
	g, err := models.Build(model, 4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(g, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	ds := goldenDataset(t, model)
	for i := 0; i < 4; i++ {
		x, _, err := ds.Batch(4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Forward(x); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ex.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInferenceLogitsGolden pins the inference numerics end to end: a
// batch-1 inference executor, folded where noted, loaded from the golden
// checkpoint and run over the class patterns (at most 8) must reproduce these
// logits bit for bit. The digest is FNV-1a over the logits' %08x float bits.
// Served answers must bit-match these references, so a digest that moves is a
// change to every inference answer, not only to this test.
func TestInferenceLogitsGolden(t *testing.T) {
	cases := []struct {
		model string
		fold  bool
		want  string
	}{
		{"tiny-cnn", false, "97acf974f29cc2fe"},
		{"tiny-cnn", true, "e546ccffc8782d34"},
		{"tiny-densenet", false, "9172eb41dd1d53aa"},
		{"tiny-resnet", true, "eefc2e3da80d1aed"},
		{"tiny-inception", false, "3e7fd99dfed95f53"},
	}
	for _, tc := range cases {
		name := tc.model
		if tc.fold {
			name += "/folded"
		}
		t.Run(name, func(t *testing.T) {
			ckpt := goldenCheckpoint(t, tc.model)
			g, err := models.Build(tc.model, 1)
			if err != nil {
				t.Fatal(err)
			}
			opts := []Option{WithSeed(42), WithWorkers(1), WithInference()}
			if tc.fold {
				opts = append(opts, WithFoldedBN())
			}
			ex, err := NewExecutor(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Load(bytes.NewReader(ckpt)); err != nil {
				t.Fatal(err)
			}
			ds := goldenDataset(t, tc.model)
			h := fnv.New64a()
			for i := 0; i < min(ds.Classes, 8); i++ {
				pat, err := ds.Pattern(i)
				if err != nil {
					t.Fatal(err)
				}
				x := tensor.New(1, ds.Channels, ds.Size, ds.Size)
				copy(x.Data, pat.Data)
				y, err := ex.Forward(x)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range y.Data {
					fmt.Fprintf(h, "%08x", math.Float32bits(v))
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("reference logits digest %s, want %s", got, tc.want)
			}
		})
	}
}
