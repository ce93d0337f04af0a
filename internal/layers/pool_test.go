package layers

import (
	"math"
	"slices"
	"testing"

	"bnff/internal/tensor"
)

func TestMaxPoolKnownValues(t *testing.T) {
	p := Pool2D{Kernel: 2, Stride: 2, Max: true}
	x := tensor.MustFromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	y, _, err := p.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 8, 9, 4}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("maxpool y[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestAvgPoolKnownValues(t *testing.T) {
	p := Pool2D{Kernel: 2, Stride: 2, Max: false}
	x := tensor.MustFromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		8, 0, 2, 2,
		0, 0, 2, 2,
	}, 1, 1, 4, 4)
	y, _, err := p.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{2.5, 6.5, 2, 2}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("avgpool y[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestMaxPoolWithPadIgnoresPadding(t *testing.T) {
	// All-negative input with padding: max must come from real cells, not
	// treat padding as zero.
	p := Pool2D{Kernel: 3, Stride: 2, Pad: 1, Max: true}
	x := tensor.New(1, 1, 4, 4)
	x.Fill(-5)
	y, _, err := p.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y.Data {
		if v != -5 {
			t.Errorf("padded maxpool y[%d] = %v, want -5", i, v)
		}
	}
}

func TestAvgPoolPadDivisor(t *testing.T) {
	// count_include_pad=false: corner windows divide by in-bounds cells only.
	p := Pool2D{Kernel: 2, Stride: 2, Pad: 1, Max: false}
	x := tensor.MustFromSlice([]float32{
		4, 4,
		4, 4,
	}, 1, 1, 2, 2)
	y, _, err := p.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y.Data {
		if v != 4 {
			t.Errorf("avgpool pad y[%d] = %v, want 4 (divide by real cells)", i, v)
		}
	}
}

func TestPoolOutShape(t *testing.T) {
	p := Pool2D{Kernel: 3, Stride: 2, Pad: 1, Max: true}
	got := p.OutShape(tensor.Shape{2, 64, 112, 112})
	want := tensor.Shape{2, 64, 56, 56}
	if !got.Equal(want) {
		t.Errorf("OutShape = %v, want %v", got, want)
	}
}

func TestPoolGradients(t *testing.T) {
	for _, p := range []Pool2D{
		{Kernel: 2, Stride: 2, Max: true},
		{Kernel: 2, Stride: 2, Max: false},
		{Kernel: 3, Stride: 2, Pad: 1, Max: false},
		{Kernel: 3, Stride: 2, Pad: 1, Max: true},
		{Kernel: 2, Stride: 1, Pad: 1, Max: false},
	} {
		pool := p
		rng := tensor.NewRNG(17)
		x := tensor.New(2, 2, 6, 6)
		// Distinct values so max-pool argmax is stable under the fd epsilon.
		for i := range x.Data {
			x.Data[i] = float32(i%97) + 0.001*float32(i)
		}
		_ = rng
		dy, lossOf := weightedSumLoss(pool.OutShape(x.Shape()), 9)
		loss := func() float64 {
			y, _, err := pool.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			return lossOf(y)
		}
		_, ctx, err := pool.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		dx, err := pool.Backward(dy, ctx)
		if err != nil {
			t.Fatal(err)
		}
		checkGrad(t, "pool dX", dx, numericGrad(x, 1e-3, loss), 2e-2)
	}
}

func TestPoolShapeErrors(t *testing.T) {
	p := Pool2D{Kernel: 2, Stride: 2, Max: true}
	if _, _, err := p.Forward(tensor.New(2, 3)); err == nil {
		t.Error("accepted rank-2 input")
	}
	if _, _, err := (Pool2D{Kernel: 0, Stride: 1}).Forward(tensor.New(1, 1, 4, 4)); err == nil {
		t.Error("accepted kernel 0")
	}
	if _, _, err := (Pool2D{Kernel: 9, Stride: 1}).Forward(tensor.New(1, 1, 4, 4)); err == nil {
		t.Error("accepted window larger than input")
	}
	// A pad past half the kernel leaves windows over padding alone: 0/0 on
	// average, −Inf and an argmax of −1 on max.
	for _, bad := range []Pool2D{{Kernel: 2, Stride: 2, Pad: 2, Max: true}, {Kernel: 2, Stride: 2, Pad: 2}, {Kernel: 3, Stride: 1, Pad: 2}, {Kernel: 2, Stride: 1, Pad: -1}} {
		if _, _, err := bad.Forward(tensor.New(1, 1, 4, 4)); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
	x := tensor.New(1, 1, 4, 4)
	_, ctx, _ := p.Forward(x)
	if _, err := p.Backward(tensor.New(1, 1, 3, 3), ctx); err == nil {
		t.Error("accepted wrong dy shape")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := tensor.MustFromSlice([]float32{
		1, 2, 3, 4, // c0: mean 2.5
		10, 10, 10, 10, // c1: mean 10
	}, 1, 2, 2, 2)
	y, err := GlobalAvgPoolForwardAlloc(nil, nil, x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 2.5 || y.Data[1] != 10 {
		t.Errorf("gap = %v, want [2.5 10]", y.Data)
	}
	dy := tensor.MustFromSlice([]float32{4, 8}, 1, 2)
	dx, err := GlobalAvgPoolBackwardAlloc(nil, nil, dy, x.Shape())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if dx.Data[i] != 1 {
			t.Errorf("gap dx c0[%d] = %v, want 1", i, dx.Data[i])
		}
		if dx.Data[4+i] != 2 {
			t.Errorf("gap dx c1[%d] = %v, want 2", i, dx.Data[4+i])
		}
	}
	if _, err := GlobalAvgPoolForwardAlloc(nil, nil, tensor.New(2, 2)); err == nil {
		t.Error("accepted rank-2 input")
	}
	if _, err := GlobalAvgPoolBackwardAlloc(nil, nil, tensor.New(2, 3), x.Shape()); err == nil {
		t.Error("accepted wrong dy shape")
	}
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	x := tensor.New(2, 3, 4, 4)
	tensor.NewRNG(23).FillUniform(x, -1, 1)
	dy, lossOf := weightedSumLoss(tensor.Shape{2, 3}, 13)
	loss := func() float64 {
		y, err := GlobalAvgPoolForwardAlloc(nil, nil, x)
		if err != nil {
			t.Fatal(err)
		}
		return lossOf(y)
	}
	dx, err := GlobalAvgPoolBackwardAlloc(nil, nil, dy, x.Shape())
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, "gap dX", dx, numericGrad(x, 1e-2, loss), 1e-2)
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	p := Pool2D{Kernel: 2, Stride: 2, Max: true}
	x := tensor.MustFromSlice([]float32{
		1, 2,
		3, 9,
	}, 1, 1, 2, 2)
	_, ctx, err := p.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	dy := tensor.MustFromSlice([]float32{7}, 1, 1, 1, 1)
	dx, err := p.Backward(dy, ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 7}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Errorf("argmax routing dx[%d] = %v, want %v", i, dx.Data[i], want[i])
		}
	}
	if math.Abs(dx.Sum()-7) > 1e-6 {
		t.Error("maxpool backward does not conserve gradient mass")
	}
}

// Pooling and global pooling read a Concat as the dense map it stands for:
// the same outputs bit for bit and argmax indices into the dense layout.
func TestPoolReadsConcatAsDense(t *testing.T) {
	x := tensor.New(2, 7, 5, 6)
	tensor.NewRNG(31).FillUniform(x, -1, 1)
	v := channelSplit(x, 1, 2)
	for _, p := range []Pool2D{{Kernel: 3, Stride: 2, Pad: 1, Max: true}, {Kernel: 2, Stride: 1, Pad: 1}} {
		want, wctx, err := p.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		got, gctx, err := p.Forward(v)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got.Data, want.Data) || !slices.Equal(gctx.ArgMax, wctx.ArgMax) {
			t.Errorf("%+v: pooling a Concat differs from pooling the dense map", p)
		}
	}
	want, err := GlobalAvgPoolForwardAlloc(nil, nil, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GlobalAvgPoolForwardAlloc(nil, nil, v)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got.Data, want.Data) {
		t.Error("global pooling a Concat differs from the dense map")
	}
}
