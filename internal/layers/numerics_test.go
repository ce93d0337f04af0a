package layers

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bnff/internal/tensor"
)

// mvfRef is the float64 two-pass reference: the mean, then the biased
// variance around it, per channel.
func mvfRef(x *tensor.Tensor) (mean, variance []float64) {
	n, c, h, w := x.Dims4()
	hw, m := h*w, float64(n*h*w)
	mean, variance = make([]float64, c), make([]float64, c)
	for ic := range mean {
		for in := 0; in < n; in++ {
			for _, v := range x.Data[(in*c+ic)*hw : (in*c+ic+1)*hw] {
				mean[ic] += float64(v)
			}
		}
		mean[ic] /= m
		for in := 0; in < n; in++ {
			for _, v := range x.Data[(in*c+ic)*hw : (in*c+ic+1)*hw] {
				d := float64(v) - mean[ic]
				variance[ic] += d * d
			}
		}
		variance[ic] /= m
	}
	return mean, variance
}

// sameClass reports whether a float32 result and its float64 reference are
// the same kind of value: both NaN, the same infinity, or both finite.
func sameClass(got float32, want float64) bool {
	g := float64(got)
	switch {
	case math.IsNaN(want):
		return math.IsNaN(g)
	case math.IsInf(want, 0):
		return g == want
	}
	return !math.IsNaN(g) && !math.IsInf(g, 0)
}

// TestMVFNumerics is the numerics table behind the paper's §3.2 claim that
// single precision suffices for E(X²) − E(X)²: float32 single-sweep MVF —
// BatchNorm.Close over Moments, and the conv window's epilogue, which must
// agree bit for bit — against a float64 two-pass reference, per regime:
//
//   - a channel mean μ of 0 to 10⁴ standard deviations σ, the cancellation
//     the paper warns about (M = 4096 elements per channel);
//   - constant channels, whose variance is 0: the v < 0 clamp gives exactly
//     0 where the float32 difference cancels below zero (0.3 over M = 50),
//     but over M = 4096 the rounding of Σx² leaves a positive σ²₃₂;
//   - M = 1, where the variance is exactly 0;
//   - ±Inf and NaN elements, which must come out as the reference's NaN or
//     infinity — the clamp never swallows a NaN variance.
//
// Errors are in units of s: the reference σ, or |μ| for a constant channel.
// The bounds are the measured errors with headroom, and 0 where the result is
// exact; `go test -run TestMVFNumerics -v` prints the table EXPERIMENTS.md
// commits.
func TestMVFNumerics(t *testing.T) {
	const n, c, hw = 16, 4, 16
	normal := func(seed uint64, mean float64) *tensor.Tensor {
		x := tensor.New(n, c, hw, hw)
		tensor.NewRNG(seed).FillNormal(x, mean, 0.5)
		return x
	}
	constant := func(v float32, n, hw int) *tensor.Tensor {
		x := tensor.New(n, c, hw, hw)
		x.Fill(v)
		return x
	}
	poisoned := func(vals ...float32) *tensor.Tensor {
		x := normal(9, 0)
		for i, v := range vals { // channel 0 of sample i
			x.Data[i*c*hw*hw] = v
		}
		return x
	}
	inf := float32(math.Inf(1))
	rows := []struct {
		name           string
		x              *tensor.Tensor
		meanTol, sdTol float64 // bounds on |μ₃₂ − μ₆₄| / s and |σ₃₂ − σ₆₄| / s
	}{
		{"μ/σ = 0", normal(1, 0), 2e-8, 5e-7},
		{"μ/σ = 1", normal(2, 0.5), 5e-7, 1e-6},
		{"μ/σ = 10", normal(3, 5), 5e-6, 5e-5},
		{"μ/σ = 10²", normal(4, 50), 5e-5, 5e-3},
		{"μ/σ = 10³", normal(5, 500), 5e-4, 0.5},
		{"μ/σ = 10⁴", normal(6, 5000), 5e-3, 10},
		{"constant 0.3, M = 50", constant(0.3, 2, 5), 1e-6, 0},
		{"constant 0.3", constant(0.3, n, hw), 2e-6, 2e-3},
		{"constant 123.456", constant(123.456, n, hw), 1e-5, 1e-2},
		{"constant −7.1·10⁴", constant(-7.1e4, n, hw), 1e-6, 5e-3},
		{"M = 1", randomBNInput(7, 1, c, 1, 1, 100), 0, 0},
		{"+Inf element", poisoned(inf), 2e-8, 2e-7},
		{"−Inf element", poisoned(-inf), 2e-8, 2e-7},
		{"+Inf and −Inf", poisoned(inf, -inf), 2e-8, 2e-7},
		{"NaN element", poisoned(float32(math.NaN())), 2e-8, 2e-7},
	}
	var table strings.Builder
	table.WriteString("| regime | M | \\|μ₃₂ − μ₆₄\\| / s | \\|σ₃₂ − σ₆₄\\| / s | channels with σ²₃₂ = 0 | non-finite |\n|---|---|---|---|---|---|\n")
	for _, row := range rows {
		nn, cc, h, w := row.x.Dims4()
		bn := NewBatchNorm(cc)
		got, err := bn.ComputeStatsMVF(row.x)
		if err != nil {
			t.Fatal(err)
		}
		// The window's epilogue over the same map: a depthwise 1×1
		// convolution with unit weights writes y = x exactly.
		conv := NewDepthwiseConv2D(cc, 1, 1, 0)
		ones := tensor.New(conv.WeightShape()...)
		ones.Fill(1)
		_, _, m, err := conv.ForwardWindow(row.x, ones, ConvWindow{Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		win, err := closeMoments(bn, m)
		if err != nil {
			t.Fatal(err)
		}
		if win.M != got.M || !sameFloats(win.Mean.Data, got.Mean.Data) || !sameFloats(win.Var.Data, got.Var.Data) {
			t.Errorf("%s: window epilogue (%v, %v) differs from Close(Moments) (%v, %v)",
				row.name, win.Mean.Data, win.Var.Data, got.Mean.Data, got.Var.Data)
		}

		mean, variance := mvfRef(row.x)
		var meanErr, sdErr float64
		zero, nonFinite := 0, "–"
		for ic := range mean {
			mu, v := got.Mean.Data[ic], got.Var.Data[ic]
			if !sameClass(mu, mean[ic]) || !sameClass(v, variance[ic]) {
				t.Errorf("%s channel %d: MVF (%v, %v), reference (%v, %v)", row.name, ic, mu, v, mean[ic], variance[ic])
			}
			if math.IsNaN(variance[ic]) || math.IsInf(mean[ic], 0) {
				nonFinite = fmt.Sprintf("channel %d: μ₃₂ = %v, σ²₃₂ = %v, as the reference", ic, mu, v)
				continue
			}
			sd := math.Sqrt(variance[ic])
			s := sd
			if s == 0 {
				s = math.Abs(mean[ic])
			}
			meanErr = max(meanErr, math.Abs(float64(mu)-mean[ic])/s)
			sdErr = max(sdErr, math.Abs(math.Sqrt(float64(v))-sd)/s)
			if v == 0 {
				zero++
			}
		}
		fmt.Fprintf(&table, "| %s | %d | %.2g | %.2g | %d of %d | %s |\n", row.name, nn*h*w, meanErr, sdErr, zero, cc, nonFinite)
		if meanErr > row.meanTol || sdErr > row.sdTol {
			t.Errorf("%s: mean error %.3g s (bound %.3g), σ error %.3g s (bound %.3g)",
				row.name, meanErr, row.meanTol, sdErr, row.sdTol)
		}
	}
	t.Log("\n" + table.String())
}
