package kernels

import (
	"math"
	"testing"

	"bnff/internal/layers"
	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// Edge-geometry coverage for the blocked fused kernels: output widths that
// are not multiples of the 4-wide register tile, strides > 1, and grouped
// consumers. The conv half of the fused forward must match the layer's own
// blocked forward bit for bit when fed the same rectified tile.
func TestFusedForwardEdgeGeometries(t *testing.T) {
	cases := []struct {
		name  string
		conv2 layers.Conv2D
		hw    int
	}{
		{"stride2 pad1 ow5", layers.NewConv2D(4, 6, 3, 2, 1), 9},
		{"stride2 pad0 ow4", layers.NewConv2D(4, 6, 3, 2, 0), 10},
		{"ow7 edge tile", layers.NewConv2D(4, 5, 3, 1, 1), 7},
		{"grouped consumer", func() layers.Conv2D {
			c := layers.NewConv2D(4, 6, 3, 1, 1)
			c.Groups = 2
			return c
		}(), 6},
		{"wide pad borders", layers.NewConv2D(4, 3, 3, 1, 2), 5},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			pool := parallel.New(workers)
			conv1 := layers.NewConv2D(3, 4, 3, 1, 1).WithPool(pool)
			conv2 := tc.conv2.WithPool(pool)
			bn := layers.NewBatchNorm(4)
			rng := tensor.NewRNG(uint64(tc.hw))
			x := tensor.New(3, 3, tc.hw, tc.hw)
			w1 := tensor.New(conv1.WeightShape()...)
			w2 := tensor.New(conv2.WeightShape()...)
			gamma := tensor.New(4)
			beta := tensor.New(4)
			rng.FillNormal(x, 0, 1)
			rng.FillHe(w1, 27)
			rng.FillHe(w2, 36)
			rng.FillUniform(gamma, 0.5, 1.5)
			rng.FillUniform(beta, -0.3, 0.3)

			u, stats, err := ConvForwardStats(conv1, x, w1)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			y, xhat, err := FusedBNReLUConvForward(conv2, bn, u, stats, gamma, beta, w2)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			// Rebuild the rectified tile from the returned x̂ with the same
			// expression the fused sweep uses; the conv half must then equal
			// the layer's own blocked forward over it bit for bit.
			z := tensor.New(xhat.Shape()...)
			n, c, h, wd := xhat.Dims4()
			for in := 0; in < n; in++ {
				for ic := 0; ic < c; ic++ {
					base := (in*c + ic) * h * wd
					for i := 0; i < h*wd; i++ {
						if v := gamma.Data[ic]*xhat.Data[base+i] + beta.Data[ic]; v > 0 {
							z.Data[base+i] = v
						}
					}
				}
			}
			want, err := conv2.Forward(z, w2)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if d, _ := tensor.MaxAbsDiff(want, y); d != 0 {
				t.Errorf("%s workers=%d: fused conv half differs from layer forward by %v", tc.name, workers, d)
			}
		}
	}
}

// RCF through the blocked sample kernel must still equal ReLU∘conv exactly
// on edge geometries (strides, groups, tile remainders).
func TestReLUConvForwardEdgeGeometries(t *testing.T) {
	cases := []struct {
		name string
		conv layers.Conv2D
		hw   int
	}{
		{"stride2 ow5", layers.NewConv2D(4, 6, 3, 2, 1), 9},
		{"ow6 remainder", layers.NewConv2D(3, 5, 3, 1, 1), 6},
		{"depthwise", layers.NewDepthwiseConv2D(4, 3, 1, 1), 7},
		{"stride2 pad0", layers.NewConv2D(2, 4, 3, 2, 0), 11},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			conv := tc.conv.WithPool(parallel.New(workers))
			rng := tensor.NewRNG(uint64(tc.hw + workers))
			x := tensor.New(2, conv.InChannels, tc.hw, tc.hw)
			w := tensor.New(conv.WeightShape()...)
			rng.FillNormal(x, 0, 1)
			rng.FillHe(w, conv.InChannels*9)
			want, err := conv.Forward(layers.ReLUForward(x), w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got, err := ReLUConvForward(conv, x, w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
				t.Errorf("%s workers=%d: RCF differs from ReLU∘conv by %v", tc.name, workers, d)
			}
		}
	}
}

// The unrolled Σx/Σx² epilogue must be bit-identical to the rolled
// single-chain reference, including tails where H·W % 4 != 0.
func TestConvForwardStatsUnrolledBitIdentical(t *testing.T) {
	conv := layers.NewConv2D(3, 4, 3, 1, 1)
	rng := tensor.NewRNG(21)
	x := tensor.New(3, 3, 7, 7) // 49 elements per map: 4-wide unroll + tail of 1
	w := tensor.New(conv.WeightShape()...)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, 27)
	y, stats, err := ConvForwardStats(conv, x, w)
	if err != nil {
		t.Fatal(err)
	}
	n, c, h, wd := y.Dims4()
	m := float32(n * h * wd)
	for ic := 0; ic < c; ic++ {
		var sum, sumsq float32
		for in := 0; in < n; in++ {
			base := (in*c + ic) * h * wd
			var s, sq float32
			for i := 0; i < h*wd; i++ {
				v := y.Data[base+i]
				s += v
				sq += v * v
			}
			sum += s
			sumsq += sq
		}
		mu := sum / m
		v := sumsq/m - mu*mu
		if v < 0 {
			v = 0
		}
		if stats.Mean.Data[ic] != mu || stats.Var.Data[ic] != v {
			t.Errorf("channel %d: stats (%v, %v), rolled reference (%v, %v)",
				ic, stats.Mean.Data[ic], stats.Var.Data[ic], mu, v)
		}
	}
}

// Non-finite values must pass through the fused forwards exactly as through
// the unfused layers composition, NaN positions included: a rectified-away
// input still meets its weight as a +0 term, so 0·Inf = NaN reaches the output
// (a "skip non-positive inputs" shortcut in the conv loop would swallow it).
// Weights carry ±Inf/NaN; inputs carry non-positives, ±Inf and NaN. The BN
// statistics are taken before the input is poisoned so x̂ stays mostly finite.
func TestFusedForwardsNonFiniteMatchUnfused(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	bitsEqual := func(a, b *tensor.Tensor) bool {
		for i := range a.Data {
			if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
				return false
			}
		}
		return true
	}
	cases := []struct {
		name string
		conv layers.Conv2D
		hw   int
	}{
		{"stride2 ow5", layers.NewConv2D(4, 6, 3, 2, 1), 9},
		{"ow6 remainder", layers.NewConv2D(3, 5, 3, 1, 1), 6},
		{"depthwise", layers.NewDepthwiseConv2D(4, 3, 1, 1), 7},
		{"stride2 pad0", layers.NewConv2D(2, 4, 3, 2, 0), 11},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			pool := parallel.New(workers)
			conv := tc.conv.WithPool(pool)
			bn := layers.NewBatchNorm(conv.InChannels).WithPool(pool)
			rng := tensor.NewRNG(uint64(tc.hw + workers))
			x := tensor.New(2, conv.InChannels, tc.hw, tc.hw)
			w := tensor.New(conv.WeightShape()...)
			gamma := tensor.New(conv.InChannels)
			beta := tensor.New(conv.InChannels)
			rng.FillNormal(x, 0, 1)
			rng.FillHe(w, conv.InChannels*9)
			rng.FillUniform(gamma, 0.5, 1.5)
			rng.FillUniform(beta, -0.3, 0.3)
			stats, err := twoPassStats(bn, x)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for i, v := range []float32{inf, -inf, nan} {
				w.Data[(5*i+1)%len(w.Data)] = v
				x.Data[(31*i+7)%len(x.Data)] = v
			}

			want, err := conv.Forward(layers.ReLUForward(x), w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got, err := ReLUConvForward(conv, x, w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			var nans int
			for _, v := range want.Data {
				if v != v {
					nans++
				}
			}
			if nans == 0 {
				t.Fatalf("%s: test vector produced no NaN outputs; not exercising propagation", tc.name)
			}
			if !bitsEqual(want, got) {
				t.Errorf("%s workers=%d: RCF differs bitwise from ReLU∘conv on non-finite input", tc.name, workers)
			}

			v, err := bn.Normalize(x, stats, gamma, beta)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			xhatWant := xhatOf(bn, x, stats)
			want, err = conv.Forward(layers.ReLUForward(v), w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got, xhat, err := FusedBNReLUConvForward(conv, bn, x, stats, gamma, beta, w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !bitsEqual(xhatWant, xhat) || !bitsEqual(want, got) {
				t.Errorf("%s workers=%d: BNFF forward differs bitwise from BN→ReLU→conv on non-finite input", tc.name, workers)
			}
		}
	}
}

// The backward twin of the test above: both fused backwards must equal the
// unfused Conv2D.Backward ∘ ReLUBackward (and BatchNorm.BackwardReduceFrom
// over x̂) bit for bit on non-finite data. A NaN pre-activation is rectified
// away, so its input gradient is zero (a mask written as "x <= 0" on the
// saved pre-activation lets it through); a masked element still enters the dγ
// chain as 0·x̂, so a non-finite x̂ reaches dγ as NaN.
func TestFusedBackwardsNonFiniteMatchUnfused(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	bitsEqual := func(a, b *tensor.Tensor) bool {
		for i := range a.Data {
			if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
				return false
			}
		}
		return true
	}
	cases := []struct {
		name string
		conv layers.Conv2D
		hw   int
	}{
		{"stride2 ow5", layers.NewConv2D(4, 6, 3, 2, 1), 9},
		{"ow6 remainder", layers.NewConv2D(3, 5, 3, 1, 1), 6},
		{"depthwise", layers.NewDepthwiseConv2D(4, 3, 1, 1), 7},
		{"stride2 pad0", layers.NewConv2D(2, 4, 3, 2, 0), 11},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			pool := parallel.New(workers)
			conv := tc.conv.WithPool(pool)
			bn := layers.NewBatchNorm(conv.InChannels).WithPool(pool)
			rng := tensor.NewRNG(uint64(tc.hw + workers))
			x := tensor.New(2, conv.InChannels, tc.hw, tc.hw)
			w := tensor.New(conv.WeightShape()...)
			dy := tensor.New(conv.OutShape(x.Shape())...)
			gamma := tensor.New(conv.InChannels)
			beta := tensor.New(conv.InChannels)
			rng.FillNormal(x, 0, 1)
			rng.FillHe(w, conv.InChannels*9)
			rng.FillUniform(dy, -1, 1)
			rng.FillUniform(gamma, 0.5, 1.5)
			rng.FillUniform(beta, -0.3, 0.3)
			stats, err := twoPassStats(bn, x)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			poisoned := []int{7, (31 + 7) % len(x.Data), (62 + 7) % len(x.Data)}
			for i, v := range []float32{inf, -inf, nan} {
				w.Data[(5*i+1)%len(w.Data)] = v
				x.Data[poisoned[i]] = v
			}

			dz, dwWant, err := conv.Backward(dy, layers.ReLUForward(x), w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			dxWant, err := layers.ReLUBackward(dz, x)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if v := dz.Data[poisoned[2]]; v == 0 {
				t.Fatalf("%s: conv gradient at the NaN pre-activation is 0; the mask is not exercised", tc.name)
			}
			dx, dw, _, _, err := conv.BackwardWindow(dy, x, w, layers.ConvWindow{Rectify: true})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !bitsEqual(dxWant, dx) || !bitsEqual(dwWant, dw) {
				t.Errorf("%s workers=%d: RCF backward differs bitwise from conv∘ReLU backward (dx at the NaN pre-activation: unfused %v, fused %v)",
					tc.name, workers, dxWant.Data[poisoned[2]], dx.Data[poisoned[2]])
			}

			v, err := bn.Normalize(x, stats, gamma, beta)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			xhat := xhatOf(bn, x, stats)
			dz, dwWant, err = conv.Backward(dy, layers.ReLUForward(v), w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			dvWant, err := layers.ReLUBackward(dz, v)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			// sub-BN2' over the stored x̂: x̂ is a BN input under StoredXHat.
			hat, in := bn.StoredXHat(0)
			dgWant, dbWant, err := hat.BackwardReduceFrom(dvWant, xhat, &in)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			var nans int
			for _, g := range dgWant.Data {
				if g != g {
					nans++
				}
			}
			if nans == 0 {
				t.Fatalf("%s: no NaN reached dγ; the masked 0·x̂ terms are not exercised", tc.name)
			}
			dv, dw, dg, db, err := FusedConvBackwardReLUBNReduce(conv, bn, dy, xhat, gamma, beta, w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !bitsEqual(dvWant, dv) || !bitsEqual(dwWant, dw) || !bitsEqual(dgWant, dg) || !bitsEqual(dbWant, db) {
				t.Errorf("%s workers=%d: BNFF backward differs bitwise from conv∘ReLU∘BN-reduce backward", tc.name, workers)
			}
		}
	}
}
