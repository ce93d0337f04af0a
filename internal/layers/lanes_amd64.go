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
