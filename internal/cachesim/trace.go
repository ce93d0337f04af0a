package cachesim

// Trace generation: address streams for the operator access patterns the
// paper reasons about, so the sweep accounting in internal/graph can be
// validated against an actual cache rather than assumed.

// Region is a contiguous address range standing in for one tensor.
type Region struct {
	Base  uint64
	Bytes int64
}

// Allocator hands out non-overlapping regions, 4 KiB aligned like a real
// allocator would for large tensors.
type Allocator struct {
	next uint64
}

// Alloc reserves bytes and returns the region.
func (a *Allocator) Alloc(bytes int64) Region {
	const align = 4096
	r := Region{Base: a.next, Bytes: bytes}
	a.next += (uint64(bytes) + align - 1) / align * align
	return r
}

// SweepRead streams one full read of the region through the cache.
func SweepRead(c *Cache, r Region) { c.AccessRange(r.Base, r.Bytes, false) }

// SweepWrite streams one full write of the region with ordinary
// write-allocate stores (each missing line is filled first and written back
// on eviction — 2× traffic for a spilled region).
func SweepWrite(c *Cache, r Region) { c.AccessRange(r.Base, r.Bytes, true) }

// SweepWriteNT streams one full write of the region with non-temporal
// stores, the idiom kernels use for large ofmaps (1× traffic).
func SweepWriteNT(c *Cache, r Region) { c.WriteRangeNT(r.Base, r.Bytes) }

// BNForwardTrace replays the baseline BN forward access pattern on a
// mini-batch feature map: read for the mean, read for the variance, read for
// normalization, write of the output. With mvf, the mean and variance reads
// collapse into one.
func BNForwardTrace(c *Cache, in, out Region, mvf bool) {
	SweepRead(c, in) // mean (and Σx² under MVF)
	if !mvf {
		SweepRead(c, in) // variance
	}
	SweepRead(c, in) // normalize
	SweepWriteNT(c, out)
}

// BNBackwardTrace replays the baseline BN backward pattern: dγ/dβ reductions
// read dY and the saved input, then the dX pass reads both again and writes.
func BNBackwardTrace(c *Cache, dy, saved, dx Region) {
	SweepRead(c, dy)
	SweepRead(c, saved)
	SweepRead(c, dy)
	SweepRead(c, saved)
	SweepWriteNT(c, dx)
}

// FusedBNReLUConvTrace replays the (sub-BN2)-ReLU-CONV input side: one read
// of the preceding ofmap (I2') and one write of x̂ (O2').
func FusedBNReLUConvTrace(c *Cache, in, xhat Region) {
	SweepRead(c, in)
	SweepWriteNT(c, xhat)
}

// RemappedSweeps replays the paper's Figure 4 experiment: n sweeps over a
// map whose addresses have been folded into a small window (the authors
// manipulated address offsets so all BN/ReLU accesses hit L1). window must
// be at most the cache capacity for the effect to appear.
func RemappedSweeps(c *Cache, mapBytes, window int64, n int) {
	if window <= 0 {
		window = 1
	}
	for i := 0; i < n; i++ {
		// Stream the logical map, folding each line into the window.
		lines := (mapBytes + int64(c.lineSize) - 1) / int64(c.lineSize)
		for l := int64(0); l < lines; l++ {
			addr := uint64(l*int64(c.lineSize)) % uint64(window)
			c.Access(addr, false)
		}
	}
}
