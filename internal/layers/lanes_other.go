//go:build !amd64

package layers

// Without the amd64 lane kernels every convolution takes the scalar bodies:
// hasAVX2 reports false, so the stubs below are never reached.

func hasAVX2() bool { return false }

func lanes4x16(a, b, out, seed *float32, aj, oj, n0, n1, n2, a0, a1, a2, b0, b1, b2 int) {
	panic("layers: no lane kernels on this architecture")
}

func lanes4x8(a, b, out, seed *float32, aj, oj, n0, n1, n2, a0, a1, a2, b0, b1, b2 int) {
	panic("layers: no lane kernels on this architecture")
}

func laneRows(a, b, out *float32, rows, n, ra, rb, ro, ta, tb int) {
	panic("layers: no lane kernels on this architecture")
}

func normLanes(x, xh, y, mean, inv, gamma, beta *float32, c, hw int) {
	panic("layers: no lane kernels on this architecture")
}

func normRectifyLanes(x, xh, t, mean, inv, gamma, beta *float32, c, hw int) {
	panic("layers: no lane kernels on this architecture")
}

func scaleRectifyLanes(x, t, gamma, beta *float32, c, hw int) {
	panic("layers: no lane kernels on this architecture")
}

func gradLanes(dy, xh, dx, gamma, inv, dgamma, dbeta *float32, m float32, c, hw int) {
	panic("layers: no lane kernels on this architecture")
}

func gradRegenLanes(dy, x, dx, gamma, inv, mean, dgamma, dbeta *float32, m float32, c, hw int) {
	panic("layers: no lane kernels on this architecture")
}

func maskLanes(dst, v, z *float32, n int) {
	panic("layers: no lane kernels on this architecture")
}

func transposeLanes(dst *float32, ds int, src *float32, ss, hi, n int) {
	panic("layers: no lane kernels on this architecture")
}

func momentLanes(x *float32, hw, hi, n int, s, sq *float32) {
	panic("layers: no lane kernels on this architecture")
}

func meanLanes(x *float32, hw, hi, n int, s *float64) {
	panic("layers: no lane kernels on this architecture")
}

func varLanes(x *float32, hw, hi, n int, mu, s *float64) {
	panic("layers: no lane kernels on this architecture")
}

func gammaBetaLanes(dy, xh *float32, hw, hi, n int, sg, sb *float64) {
	panic("layers: no lane kernels on this architecture")
}
