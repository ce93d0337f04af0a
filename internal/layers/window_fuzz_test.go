package layers

import (
	"math"
	"testing"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// fuzzReader decodes a fuzz input into shapes, flags and values. Past the end
// of the input it wraps around, perturbing each lap, so every input — the
// empty one included — decodes to a complete case.
type fuzzReader struct {
	data []byte
	i    int
}

func (r *fuzzReader) next() byte {
	if len(r.data) == 0 {
		r.i++
		return byte(r.i * 37)
	}
	b := r.data[r.i%len(r.data)] ^ byte(r.i/len(r.data)*151)
	r.i++
	return b
}

// intn returns a value in [0, n).
func (r *fuzzReader) intn(n int) int { return int(r.next()) % n }

// value returns a float32 that is one of ±Inf, NaN, ±0 for about one byte in
// twenty-five and a finite value of either sign otherwise.
func (r *fuzzReader) value() float32 {
	b := r.next()
	switch b {
	case 0:
		return float32(math.Inf(1))
	case 1:
		return float32(math.Inf(-1))
	case 2:
		return float32(math.NaN())
	case 3:
		return float32(math.Copysign(0, -1))
	case 4:
		return 0
	}
	return float32(int8(b)) / 32
}

func (r *fuzzReader) fill(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = r.value()
	}
	return t
}

// fuzzConv decodes a geometry: dense, grouped, depthwise, or FC's 1×1
// convolution over a 1×1 map; kernels up to 3×3 (not necessarily square),
// strides up to 3, padding up to one past the kernel, and spatial extents
// that are rarely a multiple of the 4-wide tiles. Rows up to 26 columns wide,
// dense channel counts up to 20, groups of up to 10 channels and FC heads up
// to 40 wide reach every edge of the column and channel lanes' 8- and 16-lane
// blocks and of FC's 32-lane runs; FC batches up to 5 reach its transposed
// forward.
func (r *fuzzReader) fuzzConv() (c Conv2D, n, h, w int) {
	n = 1 + r.intn(3)
	kind := r.intn(4)
	if kind == 3 {
		return NewConv2D(1+r.intn(40), 1+r.intn(40), 1, 1, 0), n + r.intn(3), 1, 1
	}
	c = Conv2D{KernelH: 1 + r.intn(3), KernelW: 1 + r.intn(3), Stride: 1 + r.intn(3)}
	c.Pad = r.intn(max(c.KernelH, c.KernelW) + 2)
	h = max(1, c.KernelH-2*c.Pad) + r.intn(11)
	w = max(1, c.KernelW-2*c.Pad) + r.intn(20)
	switch kind {
	case 0:
		c.InChannels, c.OutChannels = 1+r.intn(20), 1+r.intn(20)
	case 1:
		c.Groups = 2 + r.intn(2)
		c.InChannels, c.OutChannels = c.Groups*(1+r.intn(10)), c.Groups*(1+r.intn(10))
	case 2:
		c.Groups = 1 + r.intn(6)
		c.InChannels, c.OutChannels = c.Groups, c.Groups
	}
	return c, n, h, w
}

// split decodes a random channel split of x — parts of one channel
// included — into a Concat of copies of its channel ranges.
func (r *fuzzReader) split(x *tensor.Tensor) *Concat {
	n, c, h, w := x.Dims4()
	var v Concat
	for c0 := 0; c0 < c; {
		cp := 1
		if r.intn(3) != 0 {
			cp = 1 + r.intn(c-c0)
		}
		part := tensor.New(n, cp, h, w)
		for i := 0; i < n; i++ {
			copy(part.Data[i*cp*h*w:(i+1)*cp*h*w], x.Data[(i*c+c0)*h*w:])
		}
		if err := v.Append(part); err != nil {
			panic(err)
		}
		c0 += cp
	}
	return &v
}

// FuzzConvWindow drives both convolution windows in every ConvWindow
// configuration — plain, Bias, Rectify, BN+γ/β, Stats, and their
// combinations — over decoded geometries and values, and compares them with
// the unfused composition (Normalize, ReLUForward, the legacy convolution
// loops, ComputeStatsMVF; ReLUBackward and BackwardReduce behind the legacy
// backward) bit for bit, NaN payloads aside, at workers 1 and 4 and on both
// multiply-accumulate bodies (forEachBody). The stored-x̂ windows are checked
// against the composition; the windows over a decoded channel split of x
// (a Concat), which under BN store nothing and regenerate x̂ from x, must
// match them bit for bit. On FC's geometry without a prologue or epilogue,
// FC itself must match the window too. Plain `go test` replays the seeds;
// `make fuzz` explores.
func FuzzConvWindow(f *testing.F) {
	// One geometry of each kind — dense 3×2 stride 2 pad 3 (pad ≥ kernel),
	// grouped 2×2, depthwise 3×3 stride 2, FC 33→10 — in every configuration,
	// over finite values and over values laced with ±Inf, NaN and ±0.
	for _, geom := range [][]byte{
		{2, 0, 2, 1, 1, 3, 5, 4, 2, 3},
		{1, 1, 1, 1, 0, 1, 4, 6, 0, 1, 2},
		{2, 2, 2, 2, 1, 1, 5, 6, 3},
		{2, 3, 32, 9},
	} {
		for _, flags := range []byte{0, 1, 2, 4, 8, 2 | 8, 1 | 4 | 8, 2 | 4 | 8} {
			for _, vals := range [][]byte{{17, 250, 9, 128, 77, 200, 61, 33, 90}, {17, 0, 250, 2, 9, 3, 128, 1, 4, 61}} {
				f.Add(append(append(append([]byte(nil), geom...), flags), vals...))
			}
		}
	}
	f.Add([]byte{})
	// Rectify and BN tiles (with and without the statistics epilogue) on
	// planes that are not a multiple of the sweeps' eight lanes: 1×1 over
	// 3×15 with nine input channels (one eight-channel group and one shifted
	// back) and 3×3 pad 1 over 5×9 with five (no group).
	for _, geom := range [][]byte{{1, 0, 0, 0, 0, 0, 2, 14, 8, 4}, {2, 0, 2, 2, 0, 1, 4, 8, 4, 7}} {
		for _, flags := range []byte{1, 2, 1 | 8, 2 | 8} {
			for _, vals := range [][]byte{{17, 250, 9, 128, 77, 200, 61, 33, 90}, {17, 0, 250, 2, 9, 3, 128, 1, 4, 61}} {
				f.Add(append(append(append([]byte(nil), geom...), flags), vals...))
			}
		}
	}
	// The channel lanes on tiny-cnn's 8×8 maps with padding 1: 16→16, 8→16
	// and its 3→8 stem, 16→16 at stride 2, and two groups of eight channels.
	for _, geom := range [][]byte{
		{1, 0, 2, 2, 0, 1, 7, 7, 15, 15},
		{1, 0, 2, 2, 0, 1, 7, 7, 7, 15},
		{1, 0, 2, 2, 0, 1, 7, 7, 2, 7},
		{1, 0, 2, 2, 1, 1, 7, 7, 15, 15},
		{1, 1, 2, 2, 0, 1, 7, 7, 0, 7, 7},
	} {
		for _, flags := range []byte{0, 1, 2 | 8, 1 | 4 | 8} {
			f.Add(append(append(append([]byte(nil), geom...), flags), 17, 250, 9, 128, 77, 200, 61, 33, 90))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		conv, n, h, w := r.fuzzConv()
		flags := r.next()
		rectify, withBN, withBias, stats := flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
		x := r.fill(n, conv.InChannels, h, w)
		wt := r.fill(conv.WeightShape()...)
		dy := r.fill(conv.OutShape(x.Shape())...)
		win := ConvWindow{Rectify: rectify, Stats: stats, StoreXHat: true}
		masked := rectify || withBN
		var biasData []float32
		if withBias {
			win.Bias = r.fill(conv.OutChannels)
			biasData = win.Bias.Data
		}
		if withBN {
			c := conv.InChannels
			win.In = &BNStats{Mean: r.fill(c), Var: r.fill(c), M: n * h * w}
			win.Gamma, win.Beta = r.fill(c), r.fill(c)
		}
		parts := r.split(x)
		forEachBody(func(body string) {
			for _, workers := range []int{1, 4} {
				pool := parallel.New(workers)
				c := conv.WithPool(pool)
				bn := NewBatchNorm(conv.InChannels).WithPool(pool)
				if withBN {
					win.BN = bn
				}

				// The unfused composition: what the convolution reads (pre is the
				// pre-activation ReLU masks with, src what backward starts from).
				z, pre, src := x, x, x
				var xhatWant *tensor.Tensor
				if withBN {
					var err error
					if pre, err = bn.Normalize(x, win.In, win.Gamma, win.Beta); err != nil {
						t.Fatal(err)
					}
					xhatWant = normalizeXHat(bn, x, win.In, win.Gamma, win.Beta)
					src = xhatWant
				}
				if masked {
					z = ReLUForward(pre)
				}
				yWant := legacyConvForward(conv, z, wt, biasData)

				y, xhat, m, err := c.ForwardWindow(x, wt, win)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloats(y.Data, yWant.Data) {
					t.Fatalf("%s: %+v %dx%d n=%d win=%03b workers=%d: forward differs from the unfused composition", body, conv, h, w, n, flags&15, workers)
				}
				if withBN && !sameFloats(xhat.Data, xhatWant.Data) {
					t.Fatalf("%s: %+v workers=%d: x̂ differs from normalizeXHat", body, conv, workers)
				}
				if stats {
					want, err := NewBatchNorm(conv.OutChannels).WithPool(pool).ComputeStatsMVF(yWant)
					if err != nil {
						t.Fatal(err)
					}
					st, err := closeMoments(NewBatchNorm(conv.OutChannels), m)
					if err != nil {
						t.Fatal(err)
					}
					if st.M != want.M || !sameFloats(st.Mean.Data, want.Mean.Data) || !sameFloats(st.Var.Data, want.Var.Data) {
						t.Fatalf("%s: %+v workers=%d: epilogue statistics differ from ComputeStatsMVF", body, conv, workers)
					}
				}
				vwin := win
				vwin.StoreXHat = false
				vy, vxhat, vm, err := c.ForwardWindow(parts, wt, vwin)
				if err != nil {
					t.Fatal(err)
				}
				if vxhat != nil || !sameFloats(vy.Data, y.Data) || !sameFloats(vm.Sum, m.Sum) || !sameFloats(vm.SumSq, m.SumSq) {
					t.Fatalf("%s: %+v %dx%d n=%d win=%03b workers=%d split %d: forward over a Concat differs from the dense stored-x̂ window",
						body, conv, h, w, n, flags&15, workers, len(parts.parts))
				}

				dzWant, dwWant := tensor.New(x.Shape()...), tensor.New(wt.Shape()...)
				convBackwardWant(conv, n, h, w, dy.Data, z.Data, wt.Data, dzWant.Data, dwWant.Data, pool.NumChunks(n) > 1)
				dxWant := dzWant
				if masked {
					if dxWant, err = ReLUBackward(dzWant, pre); err != nil {
						t.Fatal(err)
					}
				}
				// The stored x̂ is the BN window's input under StoredXHat.
				bwin := ConvWindow{Rectify: rectify, Gamma: win.Gamma, Beta: win.Beta}
				if withBN {
					hat, in := bn.StoredXHat(0)
					bwin.BN, bwin.In = hat, &in
				}
				dx, dw, dg, db, err := c.BackwardWindow(dy, src, wt, bwin)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloats(dx.Data, dxWant.Data) || !sameFloats(dw.Data, dwWant.Data) {
					t.Fatalf("%s: %+v %dx%d n=%d win=%03b workers=%d: backward differs from the unfused composition (dx same %v, dw same %v)",
						body, conv, h, w, n, flags&15, workers, sameFloats(dx.Data, dxWant.Data), sameFloats(dw.Data, dwWant.Data))
				}
				if withBN {
					dgWant, dbWant := gammaBetaOver(dxWant, xhatWant)
					if !sameFloats(dg.Data, dgWant.Data) || !sameFloats(db.Data, dbWant.Data) {
						t.Fatalf("%s: %+v workers=%d: dγ/dβ differ from gammaBetaPartials over x̂", body, conv, workers)
					}
				}
				bwin.BN, bwin.In = win.BN, win.In
				vdx, vdw, vdg, vdb, err := c.BackwardWindow(dy, parts, wt, bwin)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloats(vdx.Data, dx.Data) || !sameFloats(vdw.Data, dw.Data) ||
					(withBN && (!sameFloats(vdg.Data, dg.Data) || !sameFloats(vdb.Data, db.Data))) {
					t.Fatalf("%s: %+v %dx%d n=%d win=%03b workers=%d split %d: backward over a Concat, x̂ regenerated, differs from the stored-x̂ window",
						body, conv, h, w, n, flags&15, workers, len(parts.parts))
				}

				if h == 1 && w == 1 && conv.KernelH == 1 && conv.KernelW == 1 && conv.Pad == 0 && conv.groups() == 1 && !masked && !stats {
					fuzzFC(t, conv, n, x, wt, win.Bias, dy, y, dx, dw, pool)
				}
			}
		})
	})
}

// fuzzFC checks FC on the window's 1×1-over-1×1 geometry against the
// window's own results: y, dX and dW bit for bit, dB as dY summed in sample
// order.
func fuzzFC(t *testing.T, conv Conv2D, n int, x, w, bias, dy, y, dx, dw *tensor.Tensor, pool *parallel.Pool) {
	t.Helper()
	fc := FC{In: conv.InChannels, Out: conv.OutChannels}.WithPool(pool)
	x2 := tensor.MustFromSlice(x.Data, n, fc.In)
	w2 := tensor.MustFromSlice(w.Data, fc.Out, fc.In)
	dy2 := tensor.MustFromSlice(dy.Data, n, fc.Out)
	if bias == nil {
		bias = tensor.New(fc.Out) // a +0 seed is the plain convolution's seed
	}
	fy, err := fc.Forward(x2, w2, bias)
	if err != nil {
		t.Fatal(err)
	}
	fdx, fdw, fdb, err := fc.Backward(dy2, x2, w2)
	if err != nil {
		t.Fatal(err)
	}
	dbWant := make([]float32, fc.Out)
	for in := 0; in < n; in++ {
		for o, v := range dy2.Data[in*fc.Out : (in+1)*fc.Out] {
			dbWant[o] += v
		}
	}
	if !sameFloats(fy.Data, y.Data) || !sameFloats(fdx.Data, dx.Data) || !sameFloats(fdw.Data, dw.Data) || !sameFloats(fdb.Data, dbWant) {
		t.Fatalf("%s: FC %d->%d n=%d workers=%d differs from its window", Body(), fc.In, fc.Out, n, pool.Workers())
	}
}
