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
			normed, err := bn.Normalize(x, in, gamma, beta)
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

// A stored x̂ is a BN input under StoredXHat's statistics, μ = 0 and σ² = 1
// at ε = 0: 1/σ = 1 and (x̂ − 0)·1 = x̂ for every float32. So BackwardInput
// and the BN BackwardWindow over x̂ under them must give the bits of bodies
// that read x̂ straight — the tile rectify(γ·x̂ + β), and
// dx = (γ·is/m)·(m·dy − dβ − x̂·dγ) — whatever x̂ holds. x̂ is fed raw bit
// patterns (NaN payloads, ±0, subnormals, ±Inf, ±MaxFloat32) that no
// Normalize would write; γ and σ² are NaN together on one channel, dγ and dβ
// are NaN on others, and the mean, which a stored x̂ never reads, is NaN
// throughout. The layer's ε is the default and 0.5: StoredXHat must drop it,
// or 1/σ would not be 1. Every output is compared bit for bit, payloads
// included.
func TestStoredXHatIsIdentityRegeneration(t *testing.T) {
	const n, c, h, wd, cout = 3, 11, 3, 5, 6
	hw := h * wd
	specials := specialBits()
	conv := NewConv2D(c, cout, 3, 1, 1)
	for seed := uint64(1); seed <= 4; seed++ {
		// plant fills a tensor with normal values and puts a special at
		// every k-th element.
		plant := func(k int, shape ...int) *tensor.Tensor {
			x := tensor.New(shape...)
			tensor.NewRNG(seed*100+uint64(k)).FillNormal(x, 0, 1)
			for i := int(seed) % k; i < len(x.Data); i += k {
				x.Data[i] = math.Float32frombits(specials[(i/k+int(seed))%len(specials)])
			}
			return x
		}
		xhat, dy := plant(3, n, c, h, wd), plant(4, n, c, h, wd)
		dyw, w := plant(5, conv.OutShape(xhat.Shape())...), tensor.New(conv.WeightShape()...)
		tensor.NewRNG(seed).FillNormal(w, 0, 1)
		gamma, beta, dgamma, dbeta := plant(3, c), plant(4, c), plant(5, c), plant(7, c)
		variance := tensor.New(c)
		for i, v := range fillRand(seed, c) {
			variance.Data[i] = v * v
		}
		variance.Data[1], variance.Data[6] = 0, float32(math.Inf(1))
		variance.Data[8] = -1 // 1/√(σ² + ε) is NaN
		gamma.Data[2], variance.Data[2] = math.Float32frombits(0x7fc12345), math.Float32frombits(0xffc54321)
		gamma.Data[9], variance.Data[9] = math.Float32frombits(0x7f800005), math.Float32frombits(0x7fa00007)
		dgamma.Data[3], dbeta.Data[4] = math.Float32frombits(0xff800003), math.Float32frombits(0x7fc00009)
		dgamma.Data[2], dbeta.Data[9] = math.Float32frombits(0x7fc0000b), math.Float32frombits(0xffc0000d)
		mean := tensor.New(c)
		for i := range mean.Data {
			mean.Data[i] = math.Float32frombits(0x7fc00000 | uint32(i+1))
		}
		stats := &BNStats{Mean: mean, Var: variance, M: 2 * n * hw}

		forEachBody(func(body string) {
			for _, cfg := range []struct {
				workers int
				eps     float32
			}{{1, 1e-5}, {4, 1e-5}, {1, 0.5}, {4, 0.5}} {
				workers := cfg.workers
				pool := parallel.New(workers)
				bn := NewBatchNorm(c).WithPool(pool)
				bn.Eps = cfg.eps
				inv := bn.InvStdScratch(stats)

				// dx = (γ·is/m)·(m·dy − dβ − x̂·dγ), over the stored x̂ as is,
				// in the operand order of each body: γ before is in both, then
				// x̂ before dγ and the bracket before coef in the scalar body,
				// dγ before x̂ and coef before the bracket on the lanes.
				lanes := body != "scalar"
				m := float32(stats.M)
				dxWant := make([]float32, len(xhat.Data))
				for i := 0; i < n; i++ {
					for ic, g := range gamma.Data {
						is, dg, db := inv[ic], dgamma.Data[ic], dbeta.Data[ic]
						coef := sse(g, is, g*is) / m
						for j := (i*c + ic) * hw; j < (i*c+ic+1)*hw; j++ {
							d, v := dy.Data[j], xhat.Data[j]
							if lanes {
								r := float32(m*d) - db - sse(dg, v, dg*v)
								dxWant[j] = sse(coef, r, coef*r)
							} else {
								r := float32(m*d) - db - sse(v, dg, v*dg)
								dxWant[j] = sse(r, coef, r*coef)
							}
						}
					}
				}
				dx, err := bn.BackwardInput(dy, xhat, gamma, stats, dgamma, dbeta)
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range dxWant {
					if got := dx.Data[j]; math.Float32bits(got) != math.Float32bits(v) {
						t.Fatalf("%s, workers %d, ε %v, seed %d: BackwardInput dx[%d] = %#x, want %#x (x̂ %#x)", body, workers, cfg.eps, seed, j,
							math.Float32bits(got), math.Float32bits(v), math.Float32bits(xhat.Data[j]))
					}
				}

				// The window's tile rectify(γ·x̂ + β), convolved backward by the
				// plain window, masked by the tile and reduced against x̂.
				tile := tensor.New(xhat.Shape()...)
				for i := 0; i < n; i++ {
					for ic, g := range gamma.Data {
						be := beta.Data[ic]
						for j := (i*c + ic) * hw; j < (i*c+ic+1)*hw; j++ {
							tile.Data[j] = rectify(float32(g*xhat.Data[j]) + be)
						}
					}
				}
				cv := conv.WithPool(pool)
				dz, dwWant, _, _, err := cv.BackwardWindow(dyw, tile, w, ConvWindow{})
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range dz.Data {
					dz.Data[j] = passIf(v, tile.Data[j])
				}
				dgWant, dbWant := gammaBetaOver(dz, xhat)
				hat, in := bn.StoredXHat(0)
				dv, dw, dg, db, err := cv.BackwardWindow(dyw, xhat, w, ConvWindow{BN: hat, In: &in, Gamma: gamma, Beta: beta})
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range []struct {
					name      string
					got, want []float32
				}{{"dv", dv.Data, dz.Data}, {"dW", dw.Data, dwWant.Data}, {"dγ", dg.Data, dgWant.Data}, {"dβ", db.Data, dbWant.Data}} {
					if !bitsEqual(o.got, o.want) {
						t.Errorf("%s, workers %d, ε %v, seed %d: stored-x̂ BackwardWindow %s differs from the tile rectify(γ·x̂ + β)", body, workers, cfg.eps, seed, o.name)
					}
				}
			}
		})
	}
}

// sse is r, the IEEE result of a two-operand SSE or AVX instruction whose
// first source is a and second b, with the instruction's NaN rule: a NaN
// operand passes through quieted, a's where both are NaN. Go orders the
// operands of a commutative operation as it likes; a lane kernel fixes them.
func sse(a, b, r float32) float32 {
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 0x00400000)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 0x00400000)
	}
	return r
}
