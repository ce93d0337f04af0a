package layers

import (
	"testing"
	"testing/quick"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

func randomConvCase(seed uint64, conv Conv2D, n, hw int) (x, w *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	x = tensor.New(n, conv.InChannels, hw, hw)
	w = tensor.New(conv.WeightShape()...)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.5)
	return x, w
}

func TestParallelForwardBitIdentical(t *testing.T) {
	conv := NewConv2D(3, 8, 3, 1, 1)
	x, w := randomConvCase(61, conv, 7, 9)
	serial, err := conv.Forward(x, w)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := conv.WithPool(parallel.New(4)).Forward(x, w)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(serial, pooled); d != 0 {
		t.Errorf("pooled forward differs from serial by %v", d)
	}
}

func TestParallelBackwardBitIdentical(t *testing.T) {
	conv := NewConv2D(4, 6, 3, 2, 1)
	x, w := randomConvCase(63, conv, 5, 8)
	dy := tensor.New(conv.OutShape(x.Shape())...)
	tensor.NewRNG(64).FillUniform(dy, -1, 1)

	dxS, dwS, err := conv.Backward(dy, x, w)
	if err != nil {
		t.Fatal(err)
	}
	pooled := conv.WithPool(parallel.New(3))
	dxP, dwP, err := pooled.Backward(dy, x, w)
	if err != nil {
		t.Fatal(err)
	}
	// dX rows are per-sample disjoint: identical. dW partials associate the
	// same additions differently: float32 round-off only.
	if d, _ := tensor.MaxAbsDiff(dxS, dxP); d != 0 {
		t.Errorf("parallel dX differs from serial by %v", d)
	}
	if !tensor.AllClose(dwS, dwP, 1e-5, 1e-5) {
		d, _ := tensor.MaxAbsDiff(dwS, dwP)
		t.Errorf("parallel dW differs from serial by %v (beyond round-off)", d)
	}
	// Parallel execution is deterministic: repeat and compare exactly.
	dxP2, dwP2, err := pooled.Backward(dy, x, w)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(dxP, dxP2); d != 0 {
		t.Errorf("parallel dX not deterministic (diff %v)", d)
	}
	if d, _ := tensor.MaxAbsDiff(dwP, dwP2); d != 0 {
		t.Errorf("parallel dW not deterministic (diff %v)", d)
	}
}

// Descriptors have no worker setting of their own: a fresh conv stays serial
// until WithPool attaches an executor's pool.
func TestFreshDescriptorIsSerial(t *testing.T) {
	if c := NewConv2D(1, 1, 1, 1, 0); !c.pool.Serial() {
		t.Error("fresh descriptor's pool is not serial")
	}
}

func TestParallelBackwardAccumulates(t *testing.T) {
	conv := NewConv2D(2, 2, 3, 1, 1)
	x, w := randomConvCase(65, conv, 4, 6)
	dy := tensor.New(conv.OutShape(x.Shape())...)
	tensor.NewRNG(66).FillUniform(dy, -1, 1)
	conv = conv.WithPool(parallel.New(2))
	dx := tensor.New(x.Shape()...)
	dw := tensor.New(w.Shape()...)
	for i := 0; i < 2; i++ {
		backwardInto(conv, dy, x, w, dx, dw)
	}
	dx1, dw1, err := conv.Backward(dy, x, w)
	if err != nil {
		t.Fatal(err)
	}
	dx1.Scale(2)
	dw1.Scale(2)
	// Accumulating twice rounds differently from scaling once ((Σp)+p0+p1…
	// vs 2·Σp), so compare within float32 round-off rather than exactly.
	if !tensor.AllClose(dx1, dx, 1e-5, 1e-5) || !tensor.AllClose(dw1, dw, 1e-5, 1e-5) {
		t.Error("the pooled backward window does not accumulate correctly")
	}
}

func TestGEMMMatchesDirect(t *testing.T) {
	for _, cfg := range []Conv2D{
		NewConv2D(3, 8, 3, 1, 1),
		NewConv2D(4, 6, 1, 1, 0),
		NewConv2D(3, 4, 5, 2, 2),
		NewDepthwiseConv2D(6, 3, 1, 1),
		func() Conv2D { c := NewConv2D(6, 4, 3, 1, 1); c.Groups = 2; return c }(),
	} {
		conv := cfg
		x, w := randomConvCase(71, conv, 3, 8)
		direct, err := conv.Forward(x, w)
		if err != nil {
			t.Fatal(err)
		}
		gemm, err := conv.ForwardGEMM(x, w)
		if err != nil {
			t.Fatal(err)
		}
		gemmPooled, err := conv.WithPool(parallel.New(3)).ForwardGEMM(x, w)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(gemm, gemmPooled); d != 0 {
			t.Errorf("pooled GEMM differs from serial by %v", d)
		}
		if !tensor.AllClose(direct, gemm, 1e-5, 1e-6) {
			d, _ := tensor.MaxAbsDiff(direct, gemm)
			t.Errorf("GEMM differs from direct by %v (k=%d s=%d g=%d)", d, conv.KernelH, conv.Stride, conv.Groups)
		}
	}
}

func TestGEMMRejectsBadShapes(t *testing.T) {
	conv := NewConv2D(3, 8, 3, 1, 1)
	if _, err := conv.ForwardGEMM(tensor.New(1, 4, 8, 8), tensor.New(conv.WeightShape()...)); err == nil {
		t.Error("accepted wrong channels")
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := tensor.MustFromSlice([]float32{5, 6, 7, 8}, 2, 2)
	got, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Errorf("matmul[%d] = %v, want %v", i, got.Data[i], want[i])
		}
	}
	pooled, err := matMulOn(parallel.New(2), nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(got, pooled); d != 0 {
		t.Errorf("pooled matmul differs from serial by %v", d)
	}
	if _, err := matMul(a, tensor.New(3, 2)); err == nil {
		t.Error("accepted mismatched inner dims")
	}
}

// Property: GEMM and direct agree for random small geometries.
func TestQuickGEMMEquivalence(t *testing.T) {
	f := func(seed uint64, kBits, sBits uint8) bool {
		k := 1 + int(kBits%3) // 1..3
		s := 1 + int(sBits%2) // 1..2
		conv := NewConv2D(2, 3, k, s, k/2)
		x, w := randomConvCase(seed, conv, 2, 6)
		direct, err := conv.Forward(x, w)
		if err != nil {
			return false
		}
		gemm, err := conv.ForwardGEMM(x, w)
		if err != nil {
			return false
		}
		return tensor.AllClose(direct, gemm, 1e-5, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
