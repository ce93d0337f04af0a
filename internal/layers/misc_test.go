package layers

import (
	"math"
	"testing"
	"testing/quick"

	"bnff/internal/tensor"
)

func TestReLUForwardBackward(t *testing.T) {
	x := tensor.MustFromSlice([]float32{-2, -0.5, 0, 1, 3}, 1, 1, 1, 5)
	y := ReLUForward(x)
	want := []float32{0, 0, 0, 1, 3}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("relu y[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
	dy := tensor.MustFromSlice([]float32{10, 10, 10, 10, 10}, 1, 1, 1, 5)
	dx, err := ReLUBackward(dy, x)
	if err != nil {
		t.Fatal(err)
	}
	wantDx := []float32{0, 0, 0, 10, 10}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Errorf("relu dx[%d] = %v, want %v", i, dx.Data[i], wantDx[i])
		}
	}
	if _, err := ReLUBackward(tensor.New(2), x); err == nil {
		t.Error("accepted mismatched dy")
	}
}

func TestQuickReLUIdempotent(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) {
				vals[i] = 0
			}
		}
		x := tensor.MustFromSlice(vals, len(vals), 1, 1, 1)
		once := ReLUForward(x)
		twice := ReLUForward(once)
		d, _ := tensor.MaxAbsDiff(once, twice)
		return d == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEWS(t *testing.T) {
	a := tensor.MustFromSlice([]float32{1, 2}, 1, 1, 1, 2)
	b := tensor.MustFromSlice([]float32{10, 20}, 1, 1, 1, 2)
	y, err := EWSForwardAlloc(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 11 || y.Data[1] != 22 {
		t.Errorf("ews = %v, want [11 22]", y.Data)
	}
	if _, err := EWSForwardAlloc(nil, a, tensor.New(1, 1, 1, 3)); err == nil {
		t.Error("accepted shape mismatch")
	}
	dy := tensor.MustFromSlice([]float32{5, 6}, 1, 1, 1, 2)
	da, db := EWSBackwardAlloc(nil, dy)
	if da.Data[0] != 5 || db.Data[1] != 6 {
		t.Error("ews backward does not pass gradient through")
	}
	da.Data[0] = 99
	if dy.Data[0] == 99 || db.Data[0] == 99 {
		t.Error("ews backward outputs alias each other or the input")
	}
}

func TestFCForwardKnownValues(t *testing.T) {
	fc := FC{In: 3, Out: 2}
	x := tensor.MustFromSlice([]float32{1, 2, 3}, 1, 3)
	w := tensor.MustFromSlice([]float32{
		1, 0, 0,
		0, 1, 1,
	}, 2, 3)
	b := tensor.MustFromSlice([]float32{10, 20}, 2)
	y, err := fc.Forward(x, w, b)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 11 || y.Data[1] != 25 {
		t.Errorf("fc = %v, want [11 25]", y.Data)
	}
}

func TestFCGradients(t *testing.T) {
	fc := FC{In: 5, Out: 4}
	rng := tensor.NewRNG(19)
	x := tensor.New(3, 5)
	w := tensor.New(fc.WeightShape()...)
	b := tensor.New(4)
	rng.FillUniform(x, -1, 1)
	rng.FillUniform(w, -1, 1)
	rng.FillUniform(b, -1, 1)
	dy, lossOf := weightedSumLoss(tensor.Shape{3, 4}, 5)
	loss := func() float64 {
		y, err := fc.Forward(x, w, b)
		if err != nil {
			t.Fatal(err)
		}
		return lossOf(y)
	}
	dx, dw, db, err := fc.Backward(dy, x, w)
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, "fc dX", dx, numericGrad(x, 1e-2, loss), 1e-2)
	checkGrad(t, "fc dW", dw, numericGrad(w, 1e-2, loss), 1e-2)
	checkGrad(t, "fc dB", db, numericGrad(b, 1e-2, loss), 1e-2)
}

func TestFCShapeErrors(t *testing.T) {
	fc := FC{In: 3, Out: 2}
	if _, err := fc.Forward(tensor.New(1, 4), tensor.New(2, 3), tensor.New(2)); err == nil {
		t.Error("accepted wrong input width")
	}
	if _, err := fc.Forward(tensor.New(1, 3), tensor.New(3, 2), tensor.New(2)); err == nil {
		t.Error("accepted wrong weight shape")
	}
	if _, err := fc.Forward(tensor.New(1, 3), tensor.New(2, 3), tensor.New(3)); err == nil {
		t.Error("accepted wrong bias shape")
	}
	if _, _, _, err := fc.Backward(tensor.New(1, 3), tensor.New(1, 3), tensor.New(2, 3)); err == nil {
		t.Error("accepted wrong dy shape")
	}
	// Backward validates the weight as Forward does: a transposed (In, Out)
	// weight has the right element count and would compute garbage, a short
	// one would index past its end.
	if _, _, _, err := fc.Backward(tensor.New(1, 2), tensor.New(1, 3), tensor.New(3, 2)); err == nil {
		t.Error("backward accepted a transposed weight")
	}
	if _, _, _, err := fc.Backward(tensor.New(1, 2), tensor.New(1, 3), tensor.New(2, 2)); err == nil {
		t.Error("backward accepted a short weight")
	}
	if got := fc.FLOPs(10); got != 2*10*3*2 {
		t.Errorf("fc FLOPs = %d", got)
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(29)
	a := tensor.New(2, 3, 4, 4)
	b := tensor.New(2, 5, 4, 4)
	c := tensor.New(2, 2, 4, 4)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)
	rng.FillUniform(c, -1, 1)
	y, err := ConcatForwardAlloc(nil, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Shape().Equal(tensor.Shape{2, 10, 4, 4}) {
		t.Fatalf("concat shape = %v", y.Shape())
	}
	// Spot-check channel placement.
	if y.At4(1, 3, 2, 2) != b.At4(1, 0, 2, 2) {
		t.Error("concat misplaced channel data")
	}
	parts, err := ConcatBackwardAlloc(nil, y, []int{3, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, orig := range []*tensor.Tensor{a, b, c} {
		if d, _ := tensor.MaxAbsDiff(orig, parts[i]); d != 0 {
			t.Errorf("concat/split round trip changed part %d by %v", i, d)
		}
	}
}

func TestConcatErrors(t *testing.T) {
	if _, err := ConcatForwardAlloc(nil); err == nil {
		t.Error("accepted empty input list")
	}
	if _, err := ConcatForwardAlloc(nil, tensor.New(1, 2, 4, 4), tensor.New(1, 2, 5, 4)); err == nil {
		t.Error("accepted mismatched spatial dims")
	}
	if _, err := ConcatBackwardAlloc(nil, tensor.New(1, 4, 2, 2), []int{3, 3}); err == nil {
		t.Error("accepted wrong channel split")
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over K classes: loss = ln(K).
	logits := tensor.New(2, 4)
	loss, dl, err := SoftmaxCrossEntropy(logits, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero.
	for r := 0; r < 2; r++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += float64(dl.Data[r*4+j])
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("row %d gradient sum = %v, want 0", r, s)
		}
	}
}

func TestSoftmaxGradient(t *testing.T) {
	logits := tensor.New(3, 5)
	tensor.NewRNG(37).FillUniform(logits, -2, 2)
	labels := []int{1, 4, 0}
	loss := func() float64 {
		l, _, err := SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	_, dl, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, "softmax dLogits", dl, numericGrad(logits, 1e-3, loss), 1e-2)
}

func TestSoftmaxErrors(t *testing.T) {
	if _, _, err := SoftmaxCrossEntropy(tensor.New(2, 3, 1, 1), []int{0, 1}); err == nil {
		t.Error("accepted rank-4 logits")
	}
	if _, _, err := SoftmaxCrossEntropy(tensor.New(2, 3), []int{0}); err == nil {
		t.Error("accepted wrong label count")
	}
	if _, _, err := SoftmaxCrossEntropy(tensor.New(2, 3), []int{0, 5}); err == nil {
		t.Error("accepted out-of-range label")
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{1000, 1001, 999}, 1, 3)
	loss, dl, err := SoftmaxCrossEntropy(logits, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Errorf("unstable loss %v for large logits", loss)
	}
	for i, v := range dl.Data {
		if math.IsNaN(float64(v)) {
			t.Errorf("NaN gradient at %d", i)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{
		1, 5, 2, // argmax 1
		9, 0, 0, // argmax 0
		0, 0, 7, // argmax 2
	}, 3, 3)
	acc, err := Accuracy(logits, []int{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-2.0/3) > 1e-9 {
		t.Errorf("accuracy = %v, want 2/3", acc)
	}
	if _, err := Accuracy(logits, []int{0}); err == nil {
		t.Error("accepted wrong label count")
	}
	if _, err := Accuracy(tensor.New(1, 2, 1, 1), []int{0}); err == nil {
		t.Error("accepted rank-4 logits")
	}
}
