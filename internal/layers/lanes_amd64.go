package layers

// The AVX2 lane kernels (lanes_amd64.s). Callers reach them only through the
// extent-checked wrappers in lanes.go.

func hasAVX2() bool

//go:noescape
func lanes4x16(a, b, out, seed *float32, aj, oj, n0, n1, n2, a0, a1, a2, b0, b1, b2 int)

//go:noescape
func lanes4x8(a, b, out, seed *float32, aj, oj, n0, n1, n2, a0, a1, a2, b0, b1, b2 int)

//go:noescape
func laneRows(a, b, out *float32, rows, n, ra, rb, ro, ta, tb int)

//go:noescape
func normLanes(x, xh, y, mean, inv, gamma, beta *float32, c, hw int)

//go:noescape
func normRectifyLanes(x, xh, t, mean, inv, gamma, beta *float32, c, hw int)

//go:noescape
func scaleRectifyLanes(x, t, gamma, beta *float32, c, hw int)

//go:noescape
func gradLanes(dy, xh, dx, gamma, inv, dgamma, dbeta *float32, m float32, c, hw int)

//go:noescape
func gradRegenLanes(dy, x, dx, gamma, inv, mean, dgamma, dbeta *float32, m float32, c, hw int)

//go:noescape
func maskLanes(dst, v, z *float32, n int)

//go:noescape
func transposeLanes(dst *float32, ds int, src *float32, ss, hi, n int)

//go:noescape
func momentLanes(x *float32, hw, hi, n int, s, sq *float32)

//go:noescape
func meanLanes(x *float32, hw, hi, n int, s *float64)

//go:noescape
func varLanes(x *float32, hw, hi, n int, mu, s *float64)

//go:noescape
func gammaBetaLanes(dy, xh *float32, hw, hi, n int, sg, sb *float64)
