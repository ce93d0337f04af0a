package layers

import (
	"math"
	"testing"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// The statistics epilogue of every conv-like forward must equal, bit for bit,
// ComputeStatsMVF over the output of the unfused composition: same partials,
// same sample-order reduction, same close. The table covers the kernel's edge
// geometries, a single-sample batch, a constant ofmap channel whose
// E(X²) − E(X)² cancels below zero (the clamp), and a NaN input.
func TestWindowStatsEpilogueMatchesComputeStatsMVF(t *testing.T) {
	cases := []struct {
		name   string
		conv   Conv2D
		n, hw  int
		poison func(x, w *tensor.Tensor)
	}{
		{"1x1", NewConv2D(4, 6, 1, 1, 0), 3, 6, nil},
		{"3x3 pad1", NewConv2D(3, 5, 3, 1, 1), 3, 7, nil},
		{"stride2", NewConv2D(4, 6, 3, 2, 1), 2, 9, nil},
		{"depthwise", NewDepthwiseConv2D(4, 3, 1, 1), 2, 7, nil},
		{"single sample", NewConv2D(3, 4, 3, 1, 1), 1, 5, nil},
		{"constant channel", NewConv2D(2, 3, 1, 1, 0), 2, 5, func(x, w *tensor.Tensor) {
			// Output channel 0 copies input channel 0, which is 0.3 everywhere.
			for in := 0; in < 2; in++ {
				for i := 0; i < 25; i++ {
					x.Data[in*2*25+i] = 0.3
				}
			}
			w.Data[0], w.Data[1] = 1, 0
		}},
		{"nan input", NewConv2D(3, 4, 3, 1, 1), 2, 6, func(x, w *tensor.Tensor) {
			x.Data[17] = float32(math.NaN())
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			pool := parallel.New(workers)
			conv := tc.conv.WithPool(pool)
			bn := NewBatchNorm(conv.InChannels).WithPool(pool)
			rng := tensor.NewRNG(uint64(tc.hw + workers))
			x := tensor.New(tc.n, conv.InChannels, tc.hw, tc.hw)
			w := tensor.New(conv.WeightShape()...)
			gamma := tensor.New(conv.InChannels)
			beta := tensor.New(conv.InChannels)
			rng.FillNormal(x, 0, 1)
			rng.FillHe(w, conv.InChannels*conv.KernelH*conv.KernelW)
			rng.FillUniform(gamma, 0.5, 1.5)
			rng.FillUniform(beta, -0.3, 0.3)
			if tc.poison != nil {
				tc.poison(x, w)
			}
			in, err := bn.ComputeStatsMVF(x)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			normed, _, err := bn.Normalize(x, in, gamma, beta)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			windows := []struct {
				name    string
				win     ConvWindow
				unfused *tensor.Tensor // what the plain convolution reads in the unfused graph
			}{
				{"conv", ConvWindow{Stats: true}, x},
				{"relu-conv", ConvWindow{Rectify: true, Stats: true}, ReLUForward(x)},
				{"bn-relu-conv", ConvWindow{BN: bn, In: in, Gamma: gamma, Beta: beta, Stats: true}, ReLUForward(normed)},
			}
			for _, wc := range windows {
				yWant, err := conv.Forward(wc.unfused, w)
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.name, wc.name, err)
				}
				want, err := NewBatchNorm(conv.OutChannels).WithPool(pool).ComputeStatsMVF(yWant)
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.name, wc.name, err)
				}
				y, _, m, err := conv.ForwardWindow(x, w, wc.win)
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.name, wc.name, err)
				}
				got, err := NewBatchNorm(conv.OutChannels).Close(m)
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.name, wc.name, err)
				}
				if !bitsEqual(yWant.Data, y.Data) {
					t.Errorf("%s/%s workers=%d: window output differs from the unfused composition", tc.name, wc.name, workers)
				}
				if got.M != want.M || !bitsEqual(want.Mean.Data, got.Mean.Data) || !bitsEqual(want.Var.Data, got.Var.Data) {
					t.Errorf("%s/%s workers=%d: epilogue statistics (%v, %v, M=%d), ComputeStatsMVF (%v, %v, M=%d)", tc.name, wc.name,
						workers, got.Mean.Data, got.Var.Data, got.M, want.Mean.Data, want.Var.Data, want.M)
				}
				if tc.name == "constant channel" && wc.name == "conv" {
					// The case must actually sit on the clamp: the unclamped MVF
					// difference of a constant 0.3 channel is negative in float32.
					var sumsq float32
					for in := 0; in < tc.n; in++ {
						var sq float32
						for i := 0; i < tc.hw*tc.hw; i++ {
							v := y.Data[in*conv.OutChannels*tc.hw*tc.hw+i]
							sq += v * v
						}
						sumsq += sq
					}
					mu := got.Mean.Data[0]
					if raw := sumsq/float32(got.M) - mu*mu; raw >= 0 || got.Var.Data[0] != 0 {
						t.Errorf("constant channel: raw variance %v, clamped %v; want negative, 0", raw, got.Var.Data[0])
					}
				}
			}
		}
	}
}

// BackwardWeights — the backward of a convolution that reads a graph input —
// must return BackwardWindow's dW bit for bit, plain and rectified, at workers
// 1 and 4 on both bodies, without drawing a dx buffer from the arena: nothing
// stays checked out, and its high-water mark is at least dx's size below the
// window's. A BN window, whose dγ/dβ need dx, is refused.
func TestBackwardWeightsMatchesWindowWithoutDX(t *testing.T) {
	for _, conv := range []Conv2D{NewConv2D(3, 8, 3, 1, 1), NewConv2D(16, 16, 3, 2, 1)} {
		x, w, _, dy, _, _ := laneCase(31, conv, 3, 8, 8, false)
		dxBytes := int64(4 * len(x.Data))
		forEachBody(func(body string) {
			for _, workers := range []int{1, 4} {
				for _, win := range []ConvWindow{{}, {Rectify: true}} {
					a := tensor.NewArena()
					c := conv.WithPool(parallel.New(workers)).WithAlloc(a)
					_, dwWant, _, _, err := c.BackwardWindow(dy, x, w, win)
					if err != nil {
						t.Fatal(err)
					}
					windowPeak := a.Stats().PeakBytes

					a = tensor.NewArena()
					dw, err := conv.WithPool(parallel.New(workers)).WithAlloc(a).BackwardWeights(dy, x, w, win)
					if err != nil {
						t.Fatal(err)
					}
					if !sameFloats(dw.Data, dwWant.Data) {
						t.Errorf("%s: conv %+v workers=%d rectify=%v: BackwardWeights' dW differs from BackwardWindow's", body, conv, workers, win.Rectify)
					}
					if s := a.Stats(); s.BytesInUse != 0 || s.PeakBytes > windowPeak-dxBytes {
						t.Errorf("%s: conv %+v workers=%d rectify=%v: %d bytes checked out, peak %d; want 0 and at most %d (the window's %d less dx)",
							body, conv, workers, win.Rectify, s.BytesInUse, s.PeakBytes, windowPeak-dxBytes, windowPeak)
					}
				}
			}
		})
	}
	conv := NewConv2D(3, 8, 3, 1, 1)
	x, w, _, dy, _, _ := laneCase(32, conv, 2, 6, 6, false)
	bn := NewBatchNorm(3)
	gamma, beta := tensor.New(3), tensor.New(3)
	if _, err := conv.BackwardWeights(dy, x, w, ConvWindow{BN: bn, Gamma: gamma, Beta: beta}); err == nil {
		t.Error("BackwardWeights accepted a BN window, whose dγ/dβ need the input gradient")
	}
}
