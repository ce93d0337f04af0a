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
