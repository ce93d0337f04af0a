// Package tiles names the cache geometry of the reference machine memsim's
// Skylake calibration assumes, for the environment block benchmark/env.go
// stamps into every benchmark run. The compute core's tiles are register
// tiles and size no cache block from it. It is a leaf package.
package tiles

// Geometry describes a cache hierarchy. All fields are in bytes.
type Geometry struct {
	LineBytes int // cache line size
	L1Bytes   int // per-core L1 data capacity
	L2Bytes   int // per-core L2 capacity
	L3Bytes   int // shared LLC capacity
}

// DefaultGeometry returns the geometry of the reference machine memsim's
// Skylake calibration assumes: 64 B lines, 32 KiB L1d, 1 MiB L2, 8 MiB LLC.
func DefaultGeometry() Geometry {
	return Geometry{LineBytes: 64, L1Bytes: 32 << 10, L2Bytes: 1 << 20, L3Bytes: 8 << 20}
}
