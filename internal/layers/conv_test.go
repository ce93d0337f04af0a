package layers

import (
	"testing"

	"bnff/internal/tensor"
)

func TestConvOutShape(t *testing.T) {
	cases := []struct {
		conv       Conv2D
		in         tensor.Shape
		wantH      int
		wantShapeC int
	}{
		{NewConv2D(3, 8, 3, 1, 1), tensor.Shape{2, 3, 8, 8}, 8, 8},
		{NewConv2D(3, 16, 1, 1, 0), tensor.Shape{2, 3, 8, 8}, 8, 16},
		{NewConv2D(3, 8, 3, 2, 1), tensor.Shape{2, 3, 8, 8}, 4, 8},
		{NewConv2D(3, 64, 7, 2, 3), tensor.Shape{1, 3, 224, 224}, 112, 64},
	}
	for _, c := range cases {
		got := c.conv.OutShape(c.in)
		if got[2] != c.wantH || got[1] != c.wantShapeC {
			t.Errorf("OutShape(%v, k=%d s=%d p=%d) = %v, want H=%d C=%d",
				c.in, c.conv.KernelH, c.conv.Stride, c.conv.Pad, got, c.wantH, c.wantShapeC)
		}
	}
}

func TestConvIdentityKernel(t *testing.T) {
	// A 1x1 conv with identity channel mixing must copy its input.
	conv := NewConv2D(2, 2, 1, 1, 0)
	w := tensor.New(2, 2, 1, 1)
	w.Set4(0, 0, 0, 0, 1)
	w.Set4(1, 1, 0, 0, 1)
	x := tensor.New(1, 2, 3, 3)
	tensor.NewRNG(1).FillUniform(x, -1, 1)
	y, err := conv.Forward(x, w)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(x, y); d != 0 {
		t.Errorf("identity 1x1 conv changed input, max diff %v", d)
	}
}

func TestConvKnownValues(t *testing.T) {
	// 1 input channel, 3x3 input, 2x2 kernel of ones, no pad, stride 1:
	// each output is the sum of a 2x2 window.
	conv := Conv2D{InChannels: 1, OutChannels: 1, KernelH: 2, KernelW: 2, Stride: 1, Pad: 0}
	x := tensor.MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	w := tensor.MustFromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	y, err := conv.Forward(x, w)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 16, 24, 28}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("y[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestConvPaddingZeros(t *testing.T) {
	// With pad=1 and a centered 3x3 delta kernel, output == input even at
	// the borders (padding contributes zeros).
	conv := NewConv2D(1, 1, 3, 1, 1)
	w := tensor.New(1, 1, 3, 3)
	w.Set4(0, 0, 1, 1, 1)
	x := tensor.New(1, 1, 4, 5)
	tensor.NewRNG(2).FillUniform(x, -1, 1)
	y, err := conv.Forward(x, w)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(x, y); d != 0 {
		t.Errorf("delta kernel with pad changed input, diff %v", d)
	}
}

func TestConvStride(t *testing.T) {
	conv := Conv2D{InChannels: 1, OutChannels: 1, KernelH: 1, KernelW: 1, Stride: 2, Pad: 0}
	x := tensor.MustFromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	w := tensor.MustFromSlice([]float32{1}, 1, 1, 1, 1)
	y, err := conv.Forward(x, w)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 3, 9, 11}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("strided y[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestConvShapeErrors(t *testing.T) {
	conv := NewConv2D(3, 8, 3, 1, 1)
	w := tensor.New(conv.WeightShape()...)
	if _, err := conv.Forward(tensor.New(2, 4, 8, 8), w); err == nil {
		t.Error("accepted wrong channel count")
	}
	if _, err := conv.Forward(tensor.New(2, 3, 8), w); err == nil {
		t.Error("accepted rank-3 input")
	}
	if _, err := conv.Forward(tensor.New(2, 3, 8, 8), tensor.New(8, 3, 5, 5)); err == nil {
		t.Error("accepted wrong weight shape")
	}
	bad := conv
	bad.Stride = 0
	if _, err := bad.Forward(tensor.New(2, 3, 8, 8), w); err == nil {
		t.Error("accepted stride 0")
	}
	if _, err := NewConv2D(3, 8, 9, 1, 0).Forward(tensor.New(1, 3, 4, 4), tensor.New(8, 3, 9, 9)); err == nil {
		t.Error("accepted kernel larger than padded input")
	}
}

func TestConvGradients(t *testing.T) {
	for _, cfg := range []Conv2D{
		NewConv2D(2, 3, 3, 1, 1),
		NewConv2D(3, 2, 1, 1, 0),
		NewConv2D(2, 2, 3, 2, 1),
	} {
		conv := cfg
		rng := tensor.NewRNG(11)
		x := tensor.New(2, conv.InChannels, 5, 5)
		w := tensor.New(conv.WeightShape()...)
		rng.FillUniform(x, -1, 1)
		rng.FillUniform(w, -1, 1)

		dy, lossOf := weightedSumLoss(conv.OutShape(x.Shape()), 7)
		loss := func() float64 {
			y, err := conv.Forward(x, w)
			if err != nil {
				t.Fatal(err)
			}
			return lossOf(y)
		}
		dx, dw, err := conv.Backward(dy, x, w)
		if err != nil {
			t.Fatal(err)
		}
		checkGrad(t, "conv dX", dx, numericGrad(x, 1e-2, loss), 2e-2)
		checkGrad(t, "conv dW", dw, numericGrad(w, 1e-2, loss), 2e-2)
	}
}

// The backward window run into caller buffers (backwardInto) continues their
// chains: twice into the same buffers is twice the fresh gradients.
func TestConvBackwardIntoAccumulates(t *testing.T) {
	conv := NewConv2D(2, 2, 3, 1, 1)
	rng := tensor.NewRNG(3)
	x := tensor.New(1, 2, 4, 4)
	w := tensor.New(conv.WeightShape()...)
	dy := tensor.New(conv.OutShape(x.Shape())...)
	rng.FillUniform(x, -1, 1)
	rng.FillUniform(w, -1, 1)
	rng.FillUniform(dy, -1, 1)

	dx1, dw1, err := conv.Backward(dy, x, w)
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate twice into the same buffers: must equal 2x the fresh grads.
	dx2 := tensor.New(x.Shape()...)
	dw2 := tensor.New(w.Shape()...)
	for i := 0; i < 2; i++ {
		backwardInto(conv, dy, x, w, dx2, dw2)
	}
	dx1.Scale(2)
	dw1.Scale(2)
	if !tensor.AllClose(dx1, dx2, 1e-5, 1e-6) {
		t.Error("the backward window does not accumulate dX")
	}
	if !tensor.AllClose(dw1, dw2, 1e-5, 1e-6) {
		t.Error("the backward window does not accumulate dW")
	}
}

func TestConvFLOPs(t *testing.T) {
	conv := NewConv2D(64, 128, 3, 1, 1)
	// 2 * N * Cout * OH * OW * Cin * KH * KW
	want := int64(2) * 4 * 128 * 16 * 16 * 64 * 3 * 3
	if got := conv.FLOPs(4, 16, 16); got != want {
		t.Errorf("FLOPs = %d, want %d", got, want)
	}
}
