package layers

import (
	"math"
	"testing"
	"testing/quick"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// legacyConvForward is the pre-blocking reference convolution loop (per-tap
// bounds branches, straight-line accumulation), kept here as the oracle the
// blocked kernels must match bit for bit.
func legacyConvForward(c Conv2D, x, w *tensor.Tensor, bias []float32) *tensor.Tensor {
	y := tensor.New(c.OutShape(x.Shape())...)
	n, cin, h, wd := x.Dims4()
	_, cout, oh, ow := y.Dims4()
	kh, kw, s, p := c.KernelH, c.KernelW, c.Stride, c.Pad
	g := c.groups()
	cinG, coutG := cin/g, cout/g
	for in := 0; in < n; in++ {
		for oc := 0; oc < cout; oc++ {
			icLo := (oc / coutG) * cinG
			wBase := oc * cinG * kh * kw
			outBase := (in*cout + oc) * oh * ow
			var b0 float32
			if bias != nil {
				b0 = bias[oc]
			}
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*s - p
				for ox := 0; ox < ow; ox++ {
					ix0 := ox*s - p
					acc := b0
					for ig := 0; ig < cinG; ig++ {
						inBase := (in*cin + icLo + ig) * h * wd
						wcBase := wBase + ig*kh*kw
						for ky := 0; ky < kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= wd {
									continue
								}
								acc += x.Data[inBase+iy*wd+ix] * w.Data[wcBase+ky*kw+kx]
							}
						}
					}
					y.Data[outBase+oy*ow+ox] = acc
				}
			}
		}
	}
	return y
}

// legacyConvBackward is the straight-line reference for one sample's
// convolution backward: the forward's loop nest with per-tap bounds branches,
// every (output element, tap) pair adding w·dy into dx and x·dy into dw — no
// term skipped, whatever its value. It fixes the per-element term order the
// gather kernels must keep: dx[ic,iy,ix] sees (oc, oy, ox) ascending,
// dw[oc,ig,ky,kx] sees (oy, ox) ascending, both continuing whatever chain the
// buffer already holds.
func legacyConvBackward(c Conv2D, h, wd int, dy, x, w, dx, dw []float32) {
	kh, kw, s, p := c.KernelH, c.KernelW, c.Stride, c.Pad
	oh, ow := (h+2*p-kh)/s+1, (wd+2*p-kw)/s+1
	g := c.groups()
	cinG, coutG := c.InChannels/g, c.OutChannels/g
	for oc := 0; oc < c.OutChannels; oc++ {
		icLo := (oc / coutG) * cinG
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gv := dy[(oc*oh+oy)*ow+ox]
				for ig := 0; ig < cinG; ig++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*s - p + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*s - p + kx
							if ix < 0 || ix >= wd {
								continue
							}
							xi := ((icLo+ig)*h+iy)*wd + ix
							wi := ((oc*cinG+ig)*kh+ky)*kw + kx
							dx[xi] += w[wi] * gv
							dw[wi] += x[xi] * gv
						}
					}
				}
			}
		}
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sameFloats is bitsEqual with every NaN equal to every other: which operand's
// payload and sign a NaN result inherits is the instruction selector's choice,
// not part of the kernels' contract.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, bn := a[i] != a[i], b[i] != b[i]
		if an != bn || (!an && math.Float32bits(a[i]) != math.Float32bits(b[i])) {
			return false
		}
	}
	return true
}

// packs returns w packed for the channel lanes of the forward (also FC's
// forward lanes' layout) and of dx; the sample kernels take them only where
// their lanes run.
func packs(geom ConvGeom, w []float32) (fwd, bwd []float32) {
	fwd, bwd = make([]float32, len(w)), make([]float32, len(w))
	geom.PackForward(fwd, w)
	geom.PackBackward(bwd, w)
	return fwd, bwd
}

func fillRand(seed uint64, n int) []float32 {
	t := tensor.New(n)
	tensor.NewRNG(seed).FillNormal(t, 0, 1)
	return t.Data
}

// Blocked convolution (interior register tile + clamped borders) must match
// the legacy per-tap-branch loop bit for bit across kernel/stride/group/pad
// geometries, including outputs whose width is not a multiple of the 4-wide
// tile, at workers 1 and 4.
func TestBlockedConvBitIdenticalToLegacy(t *testing.T) {
	cfgs := []struct {
		conv   Conv2D
		n, hw  int
		biased bool
	}{
		{NewConv2D(3, 8, 3, 1, 1), 3, 9, false},  // OW=9: 2 quads + edge
		{NewConv2D(3, 8, 3, 1, 1), 2, 8, true},   // folded-bias path
		{NewConv2D(4, 6, 1, 1, 0), 2, 7, false},  // 1x1, no pad
		{NewConv2D(3, 4, 5, 2, 2), 3, 11, false}, // stride 2, wide kernel
		{NewConv2D(2, 4, 3, 2, 0), 2, 9, false},  // stride 2, no pad
		{NewDepthwiseConv2D(6, 3, 1, 1), 2, 6, false},
		{func() Conv2D { c := NewConv2D(6, 4, 3, 1, 1); c.Groups = 2; return c }(), 2, 10, false},
		{NewConv2D(2, 3, 3, 1, 2), 2, 5, false}, // pad > kernel reach: wide borders
		// The 2 oc × 4 ox interior tile: channel pairs only, pairs plus an odd
		// channel, 1×1 as the GEMM it is, pairs inside groups, strided taps —
		// each seeded from zero and from a bias.
		{NewConv2D(4, 4, 3, 1, 1), 2, 8, false},
		{NewConv2D(4, 4, 3, 1, 1), 2, 8, true},
		{NewConv2D(3, 5, 3, 1, 1), 2, 11, false},
		{NewConv2D(3, 5, 3, 1, 1), 2, 11, true},
		{NewConv2D(20, 4, 1, 1, 0), 2, 9, false},
		{NewConv2D(7, 16, 1, 1, 0), 2, 6, true},
		{NewConv2D(4, 8, 1, 1, 1), 2, 7, true}, // 1×1 with a padded border
		{NewConv2D(3, 8, 3, 2, 1), 2, 13, true},
		{NewConv2D(2, 4, 3, 3, 1), 2, 14, false},                                                  // stride 3
		{func() Conv2D { c := NewConv2D(6, 6, 3, 1, 1); c.Groups = 2; return c }(), 2, 9, true},   // CoutG 3: a pair and an odd channel a group
		{func() Conv2D { c := NewConv2D(4, 12, 3, 2, 1); c.Groups = 2; return c }(), 2, 9, false}, // CoutG 6: three pairs a group
		{NewConv2D(2, 4, 5, 1, 2), 2, 3, true},                                                    // kernel larger than the unpadded input
	}
	for _, cfg := range cfgs {
		x, w := randomConvCase(uint64(cfg.n*cfg.hw), cfg.conv, cfg.n, cfg.hw)
		var bias *tensor.Tensor
		var biasData []float32
		if cfg.biased {
			bias = tensor.New(cfg.conv.OutChannels)
			tensor.NewRNG(7).FillUniform(bias, -1, 1)
			biasData = bias.Data
		}
		want := legacyConvForward(cfg.conv, x, w, biasData)
		forEachBody(func(body string) {
			for _, workers := range []int{1, 4} {
				conv := cfg.conv.WithPool(parallel.New(workers))
				var got *tensor.Tensor
				var err error
				if cfg.biased {
					got, err = conv.ForwardBias(x, w, bias)
				} else {
					got, err = conv.Forward(x, w)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(got.Data, want.Data) {
					d, _ := tensor.MaxAbsDiff(got, want)
					t.Errorf("%s: conv %+v workers=%d: blocked forward differs from legacy by %v", body, cfg.conv, workers, d)
				}
			}
		})
	}
}

// Property: blocked ≡ legacy bit-identity holds for random geometries on both
// bodies — kernel 1..3, stride 1..3, pad 0..kernel, maps of 1..11 rows and
// columns drawn apart, 2..6 input and 8, 12, 16 or 20 output channels (two
// groups of eight or ten among them), bias on and off — so the forward meets
// the column lanes, the channel lanes (every pixel, borders and strides
// included) and the scalar bodies at every edge.
func TestQuickBlockedConvBitIdentity(t *testing.T) {
	f := func(seed uint64, cBits, kBits, sBits, pBits, hBits, wBits uint8, grouped, biased bool) bool {
		k := 1 + int(kBits%3)
		s := 1 + int(sBits%3)
		p := int(pBits) % (k + 1)
		h, wd := max(1+int(hBits%11), k-2*p), max(1+int(wBits%11), k-2*p)
		cout := [4]int{8, 12, 16, 20}[cBits%4]
		conv := NewConv2D(2+2*int(cBits/4%3), cout, k, s, p)
		if grouped && cout >= 16 {
			conv.Groups = 2
		}
		rng := tensor.NewRNG(seed)
		x := tensor.New(2, conv.InChannels, h, wd)
		w := tensor.New(conv.WeightShape()...)
		bias := tensor.New(cout)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(w, 0, 0.5)
		rng.FillUniform(bias, -1, 1)
		var biasData []float32
		got, err := conv.Forward(x, w)
		if biased {
			biasData = bias.Data
			got, err = conv.ForwardBias(x, w, bias)
		}
		if err != nil {
			return false
		}
		return bitsEqual(got.Data, legacyConvForward(conv, x, w, biasData).Data)
	}
	forEachBody(func(body string) {
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	})
}

// convBackwardGeoms is the geometry table of the backward bit-identity tests:
// the forward table's shapes plus every way a gather's index arithmetic can go
// wrong — strides that leave input positions without any tap, padding at least
// as wide as the kernel, widths and channel counts on both sides of the 4-wide
// tiles, groups, and maps smaller than the kernel.
func convBackwardGeoms() []struct {
	conv    Conv2D
	n, h, w int
} {
	grouped := func(c Conv2D, g int) Conv2D { c.Groups = g; return c }
	return []struct {
		conv    Conv2D
		n, h, w int
	}{
		{NewConv2D(3, 8, 3, 1, 1), 3, 9, 9},
		{NewConv2D(4, 6, 1, 1, 0), 2, 7, 7},
		{NewConv2D(3, 4, 5, 2, 2), 3, 11, 11},
		{NewConv2D(2, 4, 3, 2, 0), 2, 9, 9},
		{NewDepthwiseConv2D(6, 3, 1, 1), 2, 6, 6},
		{grouped(NewConv2D(6, 4, 3, 1, 1), 2), 2, 10, 10},
		{NewConv2D(2, 3, 3, 1, 2), 2, 5, 5},
		{NewConv2D(4, 5, 3, 3, 1), 2, 10, 10}, // stride 3
		{NewConv2D(2, 4, 2, 3, 0), 2, 8, 8},   // stride > kernel: untouched inputs
		{NewConv2D(2, 3, 3, 1, 3), 2, 5, 5},   // pad == kernel
		{NewConv2D(3, 4, 2, 2, 2), 2, 6, 6},   // pad == kernel, strided
		{NewConv2D(4, 4, 1, 1, 1), 2, 6, 6},   // 1×1 with pad
		{NewConv2D(8, 4, 1, 2, 0), 2, 9, 9},   // 1×1 strided
		{NewConv2D(20, 4, 1, 1, 0), 2, 8, 8},  // bn-heavy's bottleneck
		{NewConv2D(5, 1, 3, 1, 1), 2, 7, 7},   // Cout 1
		{NewConv2D(1, 3, 3, 1, 1), 2, 6, 6},   // Cin 1, Cout 3
		{NewConv2D(4, 4, 3, 1, 1), 2, 8, 8},   // one tile each way
		{NewConv2D(5, 5, 3, 1, 1), 2, 6, 13},  // tile + tail, h != w
		{NewConv2D(8, 8, 3, 2, 1), 2, 12, 7},  // two tiles, strided, h != w
		{Conv2D{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 2, Stride: 1, Pad: 1}, 2, 6, 6},
		{grouped(NewConv2D(8, 8, 3, 1, 1), 2), 2, 9, 9},  // CinG = CoutG = 4
		{grouped(NewConv2D(8, 12, 3, 2, 1), 2), 2, 9, 9}, // grouped, strided
		{NewDepthwiseConv2D(8, 3, 2, 1), 2, 9, 9},        // depthwise stride 2
		{NewDepthwiseConv2D(5, 3, 2, 1), 2, 8, 8},        // depthwise stride 2, even extent
		{NewConv2D(2, 4, 5, 1, 2), 2, 3, 3},              // kernel larger than the unpadded input
		{NewConv2D(4, 4, 3, 1, 1), 2, 1, 1},              // one pixel
		{NewConv2D(4, 8, 3, 1, 1), 1, 4, 32},             // wide rows
	}
}

// convBackwardWant runs legacyConvBackward the way backwardWindow dispatches
// the samples: serially every sample continues the one dw chain; pooled, each
// sample owns a zero-seeded partial that is added in sample order. dx and dw
// come in holding whatever the caller wants accumulated onto.
func convBackwardWant(c Conv2D, n, h, wd int, dy, x, w, dx, dw []float32, pooled bool) {
	inLen := c.InChannels * h * wd
	outLen := len(dy) / n
	for in := 0; in < n; in++ {
		acc := dw
		if pooled {
			acc = make([]float32, len(dw))
		}
		legacyConvBackward(c, h, wd, dy[in*outLen:(in+1)*outLen], x[in*inLen:(in+1)*inLen], w, dx[in*inLen:(in+1)*inLen], acc)
		if pooled {
			for j, v := range acc {
				dw[j] += v
			}
		}
	}
}

// backwardInto runs the backward window onto caller buffers dx and dw, whose
// chains it continues: the accumulate-onto-buffer contract BackwardWindow's
// zeroed outputs and the pooled dW partials rest on.
func backwardInto(c Conv2D, dy, x, w, dx, dw *tensor.Tensor) {
	n, _, h, wd := x.Dims4()
	c.backwardWindow(convBwd{geom: c.SampleGeom(h, wd), dy: dy.Data, src: runsOf(x), w: w.Data, dx: dx.Data, dw: dw.Data}, n, ConvWindow{})
}

// The two backward gathers (dx, dW) must match the legacy scatter loop bit for
// bit on every geometry: finite data with exact zeros in dy (the terms the old
// kernel skipped), then the same data with ±Inf and NaN planted in dy, x and w.
// Backward starts from zeroed buffers and, at n > 1 on one worker, continues
// one dw chain across samples; backwardInto accumulates onto non-zero dx/dw.
func TestBlockedConvBackwardBitIdenticalToLegacy(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for gi, cfg := range convBackwardGeoms() {
		conv := cfg.conv
		x := tensor.New(cfg.n, conv.InChannels, cfg.h, cfg.w)
		w := tensor.New(conv.WeightShape()...)
		dy := tensor.New(conv.OutShape(x.Shape())...)
		dx0 := tensor.New(x.Shape()...)
		dw0 := tensor.New(w.Shape()...)
		rng := tensor.NewRNG(uint64(1000 + gi))
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(w, 0, 0.5)
		rng.FillUniform(dy, -1, 1)
		rng.FillNormal(dx0, 0, 1)
		rng.FillNormal(dw0, 0, 1)
		for i := 0; i < len(dy.Data); i += 3 {
			dy.Data[i] = 0
		}
		for _, poisoned := range []bool{false, true} {
			if poisoned {
				for i, v := range []float32{inf, -inf, nan, 0} {
					x.Data[(7*i+3)%len(x.Data)] = v
					w.Data[(5*i+1)%len(w.Data)] = v
					dy.Data[(11*i+2)%len(dy.Data)] = v
				}
			}
			forEachBody(func(body string) {
				for _, workers := range []int{1, 4} {
					pool := parallel.New(workers)
					pooled := pool.NumChunks(cfg.n) > 1
					c := conv.WithPool(pool)

					wantDX, wantDW := tensor.New(x.Shape()...), tensor.New(w.Shape()...)
					convBackwardWant(conv, cfg.n, cfg.h, cfg.w, dy.Data, x.Data, w.Data, wantDX.Data, wantDW.Data, pooled)
					dx, dw, err := c.Backward(dy, x, w)
					if err != nil {
						t.Fatal(err)
					}
					if !sameFloats(dx.Data, wantDX.Data) || !sameFloats(dw.Data, wantDW.Data) {
						t.Errorf("%s: conv %+v %dx%d workers=%d poisoned=%v: Backward differs from legacy (dx same %v, dw same %v)",
							body, conv, cfg.h, cfg.w, workers, poisoned, sameFloats(dx.Data, wantDX.Data), sameFloats(dw.Data, wantDW.Data))
					}

					wantDX, wantDW = dx0.Clone(), dw0.Clone()
					convBackwardWant(conv, cfg.n, cfg.h, cfg.w, dy.Data, x.Data, w.Data, wantDX.Data, wantDW.Data, pooled)
					dx, dw = dx0.Clone(), dw0.Clone()
					backwardInto(c, dy, x, w, dx, dw)
					if !sameFloats(dx.Data, wantDX.Data) || !sameFloats(dw.Data, wantDW.Data) {
						t.Errorf("%s: conv %+v %dx%d workers=%d poisoned=%v: backward window onto non-zero buffers differs from legacy (dx same %v, dw same %v)",
							body, conv, cfg.h, cfg.w, workers, poisoned, sameFloats(dx.Data, wantDX.Data), sameFloats(dw.Data, wantDW.Data))
					}
				}
			})
		}
	}
}

// Property twin of TestQuickBlockedConvBitIdentity for the backward: random
// kernel 1..4, stride 1..3, pad 0..kernel, dense / grouped / depthwise, random
// extents — one sample kernel call onto non-zero dx and dw, on both bodies.
func TestQuickBlockedConvBackwardBitIdentity(t *testing.T) {
	f := func(seed uint64, kBits, sBits, pBits, gBits, hBits, wBits uint8) bool {
		k := 1 + int(kBits%4)
		s := 1 + int(sBits%3)
		p := int(pBits) % (k + 1)
		h, wd := k+int(hBits%9), k+int(wBits%9)
		conv := NewConv2D(8, 12, k, s, p)
		switch gBits % 3 {
		case 1:
			conv.Groups = 2
		case 2:
			conv = NewDepthwiseConv2D(6, k, s, p)
		}
		geom := conv.SampleGeom(h, wd)
		rng := tensor.NewRNG(seed)
		x := tensor.New(conv.InChannels * h * wd)
		w := tensor.New(conv.WeightShape()...)
		dy := tensor.New(conv.OutChannels * geom.OH * geom.OW)
		dx := tensor.New(len(x.Data))
		dw := tensor.New(len(w.Data))
		for _, tt := range []*tensor.Tensor{x, w, dy, dx, dw} {
			rng.FillNormal(tt, 0, 1)
		}
		wantDX, wantDW := dx.Clone(), dw.Clone()
		legacyConvBackward(conv, h, wd, dy.Data, x.Data, w.Data, wantDX.Data, wantDW.Data)
		_, wt := packs(geom, w.Data)
		geom.BackwardSample(dy.Data, x.Data, w.Data, wt, dx.Data, dw.Data, make([]float32, geom.SampleScratch()))
		return bitsEqual(dx.Data, wantDX.Data) && bitsEqual(dw.Data, wantDW.Data)
	}
	forEachBody(func(body string) {
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	})
}

// A zero upstream gradient is a term like any other: 0·Inf and 0·NaN must
// reach dx (through a non-finite weight) and dw (through a non-finite input),
// as they reach y in the forward. The scatter kernel skipped dy == 0 outright.
func TestConvBackwardNonFiniteNoZeroSkip(t *testing.T) {
	conv := NewConv2D(1, 1, 1, 1, 0)
	x := tensor.MustFromSlice([]float32{float32(math.Inf(1)), 2, 3, 4}, 1, 1, 2, 2)
	w := tensor.MustFromSlice([]float32{float32(math.Inf(-1))}, 1, 1, 1, 1)
	dy := tensor.New(1, 1, 2, 2) // all zero
	for _, workers := range []int{1, 2} {
		dx, dw, err := conv.WithPool(parallel.New(workers)).Backward(dy, x, w)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range dx.Data {
			if !math.IsNaN(float64(v)) {
				t.Errorf("workers=%d: dx[%d] = %v, want NaN (0·(−Inf) must not be skipped)", workers, i, v)
			}
		}
		if !math.IsNaN(float64(dw.Data[0])) {
			t.Errorf("workers=%d: dw = %v, want NaN (Inf·0 must not be skipped)", workers, dw.Data[0])
		}
	}
	// With finite operands the zero terms change nothing.
	x.Data[0], w.Data[0] = 1, 5
	dx, dw, err := conv.Backward(dy, x, w)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(dx.Data, make([]float32, 4)) || !bitsEqual(dw.Data, make([]float32, 1)) {
		t.Errorf("finite zero-gradient backward: dx %v dw %v, want +0 everywhere", dx.Data, dw.Data)
	}
}

// The FC twin: sample 0's gradient row is all zero, its input holds an Inf and
// the weights a NaN.
func TestFCBackwardNonFiniteNoZeroSkip(t *testing.T) {
	fc := FC{In: 2, Out: 2}
	x := tensor.MustFromSlice([]float32{float32(math.Inf(1)), 1, 2, 3}, 2, 2)
	w := tensor.MustFromSlice([]float32{float32(math.NaN()), 1, 1, 1}, 2, 2)
	dy := tensor.MustFromSlice([]float32{0, 0, 1, 1}, 2, 2)
	var serial []*tensor.Tensor
	for _, workers := range []int{1, 2} {
		dx, dw, db, err := fc.WithPool(parallel.New(workers)).Backward(dy, x, w)
		if err != nil {
			t.Fatal(err)
		}
		// dx[0,0] = 0·NaN + 0·1; dx[0,1] = 0·1 + 0·1; dw[o,0] = 0·Inf + 1·2.
		if !math.IsNaN(float64(dx.Data[0])) || dx.Data[1] != 0 {
			t.Errorf("workers=%d: dx row 0 = %v, want [NaN 0]", workers, dx.Data[:2])
		}
		if !math.IsNaN(float64(dw.Data[0])) || !math.IsNaN(float64(dw.Data[2])) || dw.Data[1] != 3 || dw.Data[3] != 3 {
			t.Errorf("workers=%d: dw = %v, want [NaN 3 NaN 3]", workers, dw.Data)
		}
		if db.Data[0] != 1 || db.Data[1] != 1 {
			t.Errorf("workers=%d: db = %v, want [1 1]", workers, db.Data)
		}
		if serial == nil {
			serial = []*tensor.Tensor{dx, dw, db}
		} else if !sameFloats(dx.Data, serial[0].Data) || !sameFloats(dw.Data, serial[1].Data) || !sameFloats(db.Data, serial[2].Data) {
			t.Errorf("pooled FC backward differs from serial on non-finite input")
		}
	}
}

// The GEMM oracle must agree with the direct kernels on non-finite inputs:
// the old zero-skip fast path dropped 0·Inf = NaN terms that the direct loop
// accumulates. Weights include exact zeros to exercise the removed skip.
func TestGEMMOracleNonFiniteMatchesDirect(t *testing.T) {
	conv := NewConv2D(2, 3, 3, 1, 1)
	x, w := randomConvCase(91, conv, 2, 6)
	// Non-finite inputs at scattered positions.
	x.Data[0] = float32(math.Inf(1))
	x.Data[17] = float32(math.Inf(-1))
	x.Data[33] = float32(math.NaN())
	// Exact zeros in the weights: the old skip dropped the whole k-row, so
	// 0·Inf/0·NaN terms from x never reached the output.
	for i := 0; i < len(w.Data); i += 3 {
		w.Data[i] = 0
	}
	direct, err := conv.Forward(x, w)
	if err != nil {
		t.Fatal(err)
	}
	gemm, err := conv.ForwardGEMM(x, w)
	if err != nil {
		t.Fatal(err)
	}
	var nan int
	for _, v := range gemm.Data {
		if math.IsNaN(float64(v)) {
			nan++
		}
	}
	if nan == 0 {
		t.Fatal("test vector produced no NaN outputs; not exercising propagation")
	}
	for i := range gemm.Data {
		if math.Float32bits(gemm.Data[i]) != math.Float32bits(direct.Data[i]) {
			t.Fatalf("GEMM[%d] = %v, direct = %v: non-finite propagation differs", i, gemm.Data[i], direct.Data[i])
		}
	}
}

// matMul must propagate non-finite values through zero operands too (the
// a==0 skip used to short-circuit the whole row term).
func TestMatMulNonFiniteNoZeroSkip(t *testing.T) {
	a := tensor.MustFromSlice([]float32{0, 0, 1, 2}, 2, 2)
	b := tensor.MustFromSlice([]float32{float32(math.Inf(1)), 3, 4, 5}, 2, 2)
	got, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: 0·Inf + 0·4 = NaN; 0·3 + 0·5 = 0.
	if !math.IsNaN(float64(got.Data[0])) {
		t.Errorf("out[0,0] = %v, want NaN (0·Inf must not be skipped)", got.Data[0])
	}
	if got.Data[1] != 0 {
		t.Errorf("out[0,1] = %v, want 0", got.Data[1])
	}
	pooled, err := matMulOn(parallel.New(2), nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Data, pooled.Data) {
		t.Error("pooled matMul differs bitwise from serial on non-finite input")
	}
}

// matMulOn draws its output from the caller's arena: a second call after
// returning the first result must be served from the free lists, and the
// result must be bit-identical to the arena-free path.
func TestMatMulOnUsesArena(t *testing.T) {
	a := tensor.New(6, 5)
	b := tensor.New(5, 7)
	tensor.NewRNG(11).FillNormal(a, 0, 1)
	tensor.NewRNG(12).FillNormal(b, 0, 1)
	want, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	arena := tensor.NewArena()
	out1, err := matMulOn(nil, arena, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(out1.Data, want.Data) {
		t.Error("arena-backed matMul differs from heap-backed")
	}
	arena.Put(out1)
	hitsBefore := arena.Stats().Hits
	out2, err := matMulOn(nil, arena, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := arena.Stats().Hits; got <= hitsBefore {
		t.Errorf("second matMulOn hit the arena %d times, want > %d (the output must recycle)", got, hitsBefore)
	}
	if !bitsEqual(out2.Data, want.Data) {
		t.Error("recycled matMul differs from heap-backed")
	}
	arena.Put(out2)
	if got := arena.Stats().BytesInUse; got != 0 {
		t.Errorf("arena still has %d bytes checked out; the output leaked", got)
	}
}

// fcCases are the FC reference tests' shapes (n, in, out): channel counts
// that leave odd pairs and quads, and bn-heavy's 40→10 head.
func fcCases() [][3]int { return [][3]int{{1, 3, 2}, {3, 7, 5}, {4, 16, 10}, {5, 33, 9}, {2, 40, 10}} }

// fcCase fills x (n, in), w (out, in), b (out) and dy (n, out) for one shape.
func fcCase(n, in, out int) (x, w, b, dy *tensor.Tensor) {
	x, w, b, dy = tensor.New(n, in), tensor.New(out, in), tensor.New(out), tensor.New(n, out)
	tensor.NewRNG(uint64(n*in)).FillNormal(x, 0, 1)
	tensor.NewRNG(uint64(in*out)).FillNormal(w, 0, 0.5)
	tensor.NewRNG(uint64(out)).FillUniform(b, -1, 1)
	tensor.NewRNG(uint64(n*out)).FillUniform(dy, -1, 1)
	return x, w, b, dy
}

// FC.Forward through the forward window (a 1×1 convolution over a 1×1 map)
// must be bit-identical to the reference bias-seeded x·Wᵀ over k ascending at
// workers 1 and 4.
func TestFCForwardBitIdenticalToReference(t *testing.T) {
	for _, dims := range fcCases() {
		n, in, out := dims[0], dims[1], dims[2]
		x, w, b, _ := fcCase(n, in, out)
		want := tensor.New(n, out)
		for i := 0; i < n; i++ {
			copy(want.Data[i*out:(i+1)*out], b.Data)
		}
		naiveGEMM(want.Data, x.Data, w.Data, true, n, out, in)
		for _, workers := range []int{1, 4} {
			got, err := FC{In: in, Out: out}.WithPool(parallel.New(workers)).Forward(x, w, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got.Data, want.Data) {
				t.Errorf("FC %dx%d->%d workers=%d: forward not bit-identical to reference", n, in, out, workers)
			}
		}
	}
}

// FC.Backward through the backward window must be bit-identical to the row
// loop FC ran before it: dX = dY·W over o ascending, dW and dB summed in
// sample order, at workers 1 and 4.
func TestFCBackwardBitIdenticalToReference(t *testing.T) {
	for _, dims := range fcCases() {
		n, in, out := dims[0], dims[1], dims[2]
		x, w, _, dy := fcCase(n, in, out)
		wantDX, wantDW, wantDB := tensor.New(n, in), tensor.New(out, in), tensor.New(out)
		for i := 0; i < n; i++ {
			for o := 0; o < out; o++ {
				g := dy.Data[i*out+o]
				wantDB.Data[o] += g
				for j := 0; j < in; j++ {
					wantDX.Data[i*in+j] += g * w.Data[o*in+j]
					wantDW.Data[o*in+j] += g * x.Data[i*in+j]
				}
			}
		}
		for _, workers := range []int{1, 4} {
			dx, dw, db, err := FC{In: in, Out: out}.WithPool(parallel.New(workers)).Backward(dy, x, w)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(dx.Data, wantDX.Data) || !bitsEqual(dw.Data, wantDW.Data) || !bitsEqual(db.Data, wantDB.Data) {
				t.Errorf("FC %dx%d->%d workers=%d: backward not bit-identical to reference (dx %v dw %v db %v)", n, in, out, workers,
					bitsEqual(dx.Data, wantDX.Data), bitsEqual(dw.Data, wantDW.Data), bitsEqual(db.Data, wantDB.Data))
			}
		}
	}
}

// The sample kernels and the window chunk bodies must be allocation-free:
// outputs and scratch come from the caller, and the kernels themselves only
// slice — the lane wrappers' register-sized buffers included.
func TestBlockedKernelsAllocFree(t *testing.T) {
	// Both sample kernels on both bodies, on geometries that between them
	// reach every body: tile, quad and point of the forward and of the dx
	// gather, tile and quad of the dW gather; on the lanes, full, buffered
	// and shifted blocks of every four-row body, column and channel lanes,
	// and FC's channel runs.
	for _, cfg := range []struct {
		conv Conv2D
		h, w int
	}{
		{NewConv2D(3, 8, 3, 1, 1), 9, 9},       // paired and odd channels, CinG < 4
		{NewConv2D(8, 5, 3, 2, 1), 9, 9},       // strided, dW tile with an odd channel left
		{NewDepthwiseConv2D(6, 3, 1, 1), 9, 9}, // no pairs anywhere
		{NewConv2D(9, 6, 3, 1, 1), 5, 21},      // lanes: 16 + shifted 8 columns, channel tails
		{NewConv2D(8, 4, 3, 2, 1), 4, 40},      // lanes: strided dx through the buffer
		{NewConv2D(20, 4, 1, 1, 0), 6, 6},      // lanes: a flattened 1×1
		{NewConv2D(40, 33, 1, 1, 0), 1, 1},     // FC's channel runs
		{NewConv2D(12, 20, 3, 2, 1), 7, 9},     // channel lanes: shifted groups and blocks, strided
		{NewConv2D(16, 16, 3, 1, 1), 8, 8},     // channel lanes: tiny-cnn's 8×8 maps
	} {
		conv := cfg.conv
		geom := conv.SampleGeom(cfg.h, cfg.w)
		x := fillRand(3, conv.InChannels*cfg.h*cfg.w)
		w := fillRand(4, conv.WeightShape().NumElems())
		y := make([]float32, geom.Cout*geom.OH*geom.OW)
		dy := fillRand(5, len(y))
		dx, dw := make([]float32, len(x)), make([]float32, len(w))
		forEachBody(func(body string) {
			scratch, fscratch := make([]float32, geom.SampleScratch()), make([]float32, geom.ForwardScratch())
			fwd, bwd := packs(geom, w)
			if allocs := testing.AllocsPerRun(10, func() {
				geom.ForwardSample(x, w, fwd, y, nil, fscratch)
				geom.BackwardSample(dy, x, w, bwd, dx, dw, scratch)
				geom.ForwardSample(x, w, nil, y, nil, nil)
				geom.BackwardSample(dy, x, w, nil, dx, dw, nil)
			}); allocs != 0 {
				t.Errorf("%s: conv %+v: ForwardSample + BackwardSample allocate %v per run, want 0", body, conv, allocs)
			}
		})
	}
	conv := NewConv2D(3, 8, 3, 1, 1)
	geom := conv.SampleGeom(9, 9)
	w := fillRand(4, 8*3*3*3)

	// Both window chunk bodies, fully fused (tile fill, sample kernel,
	// partials), over caller-carved scratch.
	gamma, beta := fillRand(5, 3), fillRand(6, 3)
	x := tensor.MustFromSlice(fillRand(9, 2*3*9*9), 2, 3, 9, 9)
	fill := tileFill{rect: true, mean: fillRand(7, 3), inv: fillRand(8, 3), g: gamma, b: beta}
	fwd := convFwd{
		tileFill: fill,
		geom:     geom, x: runsOf(x), w: w, y: make([]float32, 2*8*9*9),
		xh: make([]float32, 2*3*9*9), tiles: make([]float32, 3*9*9),
		psum: make([]float32, 2*8), psumsq: make([]float32, 2*8),
	}
	if allocs := testing.AllocsPerRun(10, func() { fwd.run(0, 0, 2) }); allocs != 0 {
		t.Errorf("forward window allocates %v per run, want 0", allocs)
	}
	// The backward, regenerating x̂ from x (a stored x̂ is x under
	// StoredXHat's statistics: the same body).
	bwd := convBwd{
		tileFill: fill,
		geom:     geom, src: runsOf(x), dy: fillRand(10, 2*8*9*9), w: w,
		dx: make([]float32, 2*3*9*9), dw: make([]float32, len(w)),
		tiles: make([]float32, 3*9*9), xhs: make([]float32, 3*9*9),
		psg: make([]float64, 2*3), psb: make([]float64, 2*3),
	}
	if allocs := testing.AllocsPerRun(10, func() { bwd.run(0, 0, 2) }); allocs != 0 {
		t.Errorf("backward window allocates %v per run, want 0", allocs)
	}

	// The BN and ReLU entry points at one worker with an arena, on both
	// bodies, over a plane with a lane tail and a channel group shifted back:
	// each returns its outputs to the arena, so what is left is what escapes.
	arena := tensor.NewArena()
	pool := parallel.New(1)
	const n, c, hw = 2, 9, 17
	bx := tensor.MustFromSlice(fillRand(11, n*c*hw), n, c, 1, hw)
	bdy := tensor.MustFromSlice(fillRand(12, n*c*hw), n, c, 1, hw)
	bg, bb := tensor.MustFromSlice(fillRand(13, c), c), tensor.MustFromSlice(fillRand(14, c), c)
	bn := NewBatchNorm(c).WithPool(pool).WithAlloc(arena)
	forEachBody(func(body string) {
		st, err := bn.ComputeStats(bx)
		if err != nil {
			t.Fatal(err)
		}
		bxh := normalizeXHat(bn, bx, st, bg, bb)
		dg, db, err := bn.BackwardReduceFrom(bdy, bx, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []struct {
			name   string
			allocs float64 // what escapes to the caller by design
			run    func()
		}{
			// The *BNStats the caller keeps.
			{"ComputeStats", 1, func() { s, _ := bn.ComputeStats(bx); arena.Put(s.Mean); arena.Put(s.Var) }},
			{"Moments", 0, func() { m, _ := bn.Moments(bx); arena.PutFloats(m.Sum); arena.PutFloats(m.SumSq) }},
			{"Normalize", 0, func() { y, _ := bn.Normalize(bx, st, bg, bb); arena.Put(y) }},
			// dγ and dβ escape into the gradient map: two tensors of three
			// allocations each, their two float64 sums, and the two float64
			// partial slabs the arena, which recycles float32, cannot hold.
			{"BackwardReduceFrom", 10, func() { bn.BackwardReduceFrom(bdy, bx, st) }},
			{"BackwardInputFrom", 0, func() { d, _ := bn.BackwardInputFrom(bdy, bx, bg, st, dg, db); arena.Put(d) }},
			// StoredXHat's statistics travel by value and BackwardInput
			// returns them, and γ·invstd, to the arena.
			{"BackwardInput", 0, func() { d, _ := bn.BackwardInput(bdy, bxh, bg, st, dg, db); arena.Put(d) }},
			{"ReLUForwardAlloc", 0, func() { arena.Put(ReLUForwardAlloc(pool, arena, bx)) }},
			{"ReLUBackwardAlloc", 0, func() { d, _ := ReLUBackwardAlloc(pool, arena, bdy, bx); arena.Put(d) }},
		} {
			if allocs := testing.AllocsPerRun(10, e.run); allocs != e.allocs {
				t.Errorf("%s: %s allocates %v per run at one worker, want %v", body, e.name, allocs, e.allocs)
			}
		}
	})
}

// Bench pair: the blocked convolution against the legacy per-tap-branch loop
// on a ResNet-scale layer (64→64 3×3 on 16×16 maps).
func BenchmarkConvForwardBlocked(b *testing.B) {
	conv := NewConv2D(64, 64, 3, 1, 1)
	x, w := randomConvCase(5, conv, 1, 16)
	y := tensor.New(conv.OutShape(x.Shape())...)
	b.SetBytes(int64(4 * len(x.Data)))
	b.ResetTimer()
	geom := conv.SampleGeom(16, 16)
	for i := 0; i < b.N; i++ {
		geom.ForwardSample(x.Data, w.Data, nil, y.Data, nil, nil)
	}
}

func BenchmarkConvForwardLegacy(b *testing.B) {
	conv := NewConv2D(64, 64, 3, 1, 1)
	x, w := randomConvCase(5, conv, 1, 16)
	b.SetBytes(int64(4 * len(x.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyConvForward(conv, x, w, nil)
	}
}

// Bench pair for the backward on the same layer: the two gathers against the
// legacy scatter loop.
func benchConvBackward(b *testing.B, kernel func(conv Conv2D, dy, x, w, dx, dw []float32)) {
	conv := NewConv2D(64, 64, 3, 1, 1)
	x, w := randomConvCase(5, conv, 1, 16)
	dy := fillRand(6, 64*16*16)
	dx, dw := make([]float32, len(x.Data)), make([]float32, len(w.Data))
	b.SetBytes(2 * conv.FLOPs(1, 16, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(conv, dy, x.Data, w.Data, dx, dw)
	}
}

func BenchmarkConvBackwardBlocked(b *testing.B) {
	benchConvBackward(b, func(conv Conv2D, dy, x, w, dx, dw []float32) {
		geom := conv.SampleGeom(16, 16)
		geom.BackwardSample(dy, x, w, nil, dx, dw, make([]float32, geom.SampleScratch()))
	})
}

func BenchmarkConvBackwardLegacy(b *testing.B) {
	benchConvBackward(b, func(conv Conv2D, dy, x, w, dx, dw []float32) {
		legacyConvBackward(conv, 16, 16, dy, x, w, dx, dw)
	})
}

// BenchmarkConvShapes times one sample through the forward and the backward
// kernel on the shapes that carry the benchmark workloads (benchmark/
// workloads.json). SetBytes is the FLOP count — 2 per MAC forward, 4 backward
// (dx and dW) — so the MB/s column reads MFLOP/s.
func BenchmarkConvShapes(b *testing.B) {
	for _, sh := range []struct {
		name string
		conv Conv2D
		hw   int
	}{
		{"1x1_20to4_32", NewConv2D(20, 4, 1, 1, 0), 32},         // bn-heavy bottleneck
		{"1x1_32to16_32", NewConv2D(32, 16, 1, 1, 0), 32},       // bn-heavy transition (layer_conv)
		{"3x3_4to4_32", NewConv2D(4, 4, 3, 1, 1), 32},           // bn-heavy growth conv
		{"3x3_16to16_16", NewConv2D(16, 16, 3, 1, 1), 16},       // conv-heavy layer_conv
		{"3x3_16to32_s2_16", NewConv2D(16, 32, 3, 2, 1), 16},    // conv-heavy stage entry
		{"dw3x3_16_s2_32", NewDepthwiseConv2D(16, 3, 2, 1), 32}, // depthwise layer_conv
		{"dw3x3_32_s1_16", NewDepthwiseConv2D(32, 3, 1, 1), 16}, // depthwise, stride 1
		{"3x3_3to8_8", NewConv2D(3, 8, 3, 1, 1), 8},             // tiny-cnn stem
		{"3x3_8to16_8", NewConv2D(8, 16, 3, 1, 1), 8},           // tiny-cnn
		{"3x3_16to16_8", NewConv2D(16, 16, 3, 1, 1), 8},         // tiny-cnn
		{"3x3_3to8_32", NewConv2D(3, 8, 3, 1, 1), 32},           // bn-heavy stem
		{"3x3_32to32_8", NewConv2D(32, 32, 3, 1, 1), 8},         // conv-heavy second stage
	} {
		x, w := randomConvCase(5, sh.conv, 1, sh.hw)
		geom := sh.conv.SampleGeom(sh.hw, sh.hw)
		y := make([]float32, geom.Cout*geom.OH*geom.OW)
		dy := fillRand(6, len(y))
		dx, dw := make([]float32, len(x.Data)), make([]float32, len(w.Data))
		scratch, fscratch := make([]float32, geom.SampleScratch()), make([]float32, geom.ForwardScratch())
		fwd, bwd := packs(geom, w.Data)
		flops := sh.conv.FLOPs(1, sh.hw, sh.hw)
		b.Run(sh.name+"/fwd", func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				geom.ForwardSample(x.Data, w.Data, fwd, y, nil, fscratch)
			}
		})
		b.Run(sh.name+"/bwd", func(b *testing.B) {
			b.SetBytes(2 * flops)
			for i := 0; i < b.N; i++ {
				geom.BackwardSample(dy, x.Data, w.Data, bwd, dx, dw, scratch)
			}
		})
	}
}

// BenchmarkFC times FC through the convolution windows on the heads the
// workloads and the cost models carry. SetBytes is the FLOP count — 2 per MAC
// forward, 4 backward (dX and dW) — so the MB/s column reads MFLOP/s.
// Backward's dW is a fresh (Out, In) tensor per call, as in the executor.
func BenchmarkFC(b *testing.B) {
	for _, sh := range []struct {
		name       string
		n, in, out int
	}{
		{"tiny-cnn_16to4_b8", 8, 16, 4},
		{"bn-heavy_40to10_b32", 32, 40, 10},
		{"densenet121_1024to1000_b32", 32, 1024, 1000},
		{"vgg16_25088to4096_b1", 1, 25088, 4096},
	} {
		fc := FC{In: sh.in, Out: sh.out}
		x := tensor.New(sh.n, sh.in)
		w := tensor.New(sh.out, sh.in)
		bias := tensor.New(sh.out)
		dy := tensor.New(sh.n, sh.out)
		rng := tensor.NewRNG(7)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(w, 0, 0.1)
		rng.FillUniform(dy, -1, 1)
		flops := fc.FLOPs(sh.n)
		b.Run(sh.name+"/Forward", func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				if _, err := fc.Forward(x, w, bias); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/Backward", func(b *testing.B) {
			b.SetBytes(2 * flops)
			for i := 0; i < b.N; i++ {
				if _, _, _, err := fc.Backward(dy, x, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
