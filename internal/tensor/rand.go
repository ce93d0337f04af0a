package tensor

import "math"

// RNG is a small deterministic PRNG (SplitMix64 core) used everywhere the
// repository needs reproducible pseudo-random tensors: weight init, synthetic
// datasets, and property tests. We avoid math/rand so that results are stable
// across Go releases and so workers can fork independent streams cheaply.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. Two generators with the same seed produce the
// same stream.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split forks an independent stream; the child and parent streams do not
// correlate for any practical sample count.
func (r *RNG) Split() *RNG { return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	// Reject u1 == 0 to keep Log finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillUniform fills t with uniform samples in [lo, hi).
func (r *RNG) FillUniform(t *Tensor, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + float64((hi-lo)*r.Float64()))
	}
}

// FillNormal fills t with normal samples of the given mean and stddev.
func (r *RNG) FillNormal(t *Tensor, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(mean + float64(std*r.NormFloat64()))
	}
}

// FillHe applies He-normal initialization for a convolution or FC weight
// tensor with the given fan-in, the init used by ResNet/DenseNet training.
func (r *RNG) FillHe(t *Tensor, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	r.FillNormal(t, 0, std)
}
