package layers

import (
	"math"
	"testing"

	"bnff/internal/tensor"
)

func TestDropoutValidate(t *testing.T) {
	if err := (Dropout{Rate: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{-0.1, 1.0, 1.5} {
		if err := (Dropout{Rate: r}).Validate(); err == nil {
			t.Errorf("accepted rate %v", r)
		}
	}
	if _, _, err := (Dropout{Rate: 2}).ForwardAlloc(nil, tensor.New(4), tensor.NewRNG(1)); err == nil {
		t.Error("Forward accepted invalid rate")
	}
}

func TestDropoutZeroRateIsIdentity(t *testing.T) {
	x := tensor.New(100)
	tensor.NewRNG(1).FillUniform(x, -1, 1)
	d := Dropout{Rate: 0}
	y, from, err := d.ForwardAlloc(nil, x, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := tensor.MaxAbsDiff(x, y); diff != 0 {
		t.Error("rate 0 changed values")
	}
	if diff, _ := tensor.MaxAbsDiff(x, d.BackwardAlloc(nil, x, from)); diff != 0 {
		t.Error("rate 0 changed gradients")
	}
}

func TestDropoutSurvivalRateAndScale(t *testing.T) {
	const n = 100000
	x := tensor.New(n)
	x.Fill(1)
	d := Dropout{Rate: 0.3}
	y, _, err := d.ForwardAlloc(nil, x, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	want := float32(1 / 0.7)
	for _, v := range y.Data {
		if v != 0 {
			survivors++
			if math.Abs(float64(v-want)) > 1e-6 {
				t.Fatalf("survivor scale %v, want %v", v, want)
			}
		}
	}
	rate := 1 - float64(survivors)/n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("empirical drop rate %v, want ~0.3", rate)
	}
	// Inverted dropout preserves the expectation.
	if mean := y.Sum() / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("output mean %v, want ~1 (inverted scaling)", mean)
	}
}

// The backward replays the forward's keep decisions: on a unit input the
// output is the survivors' scale, so dx must be dy times the output.
func TestDropoutBackwardReplaysForward(t *testing.T) {
	x := tensor.New(64)
	x.Fill(1)
	d := Dropout{Rate: 0.5}
	rng := tensor.NewRNG(5)
	y, from, err := d.ForwardAlloc(nil, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng.Uint64() // the caller's stream moves on; the replay must not
	dy := tensor.New(64)
	dy.Fill(2)
	dx := d.BackwardAlloc(nil, dy, from)
	kept := 0
	for i := range dx.Data {
		if dx.Data[i] != 2*y.Data[i] {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], 2*y.Data[i])
		}
		if y.Data[i] != 0 {
			kept++
		}
	}
	if kept == 0 || kept == len(y.Data) {
		t.Errorf("%d of %d kept: the test shows nothing", kept, len(y.Data))
	}
}

func TestDropoutDeterministicPerSeed(t *testing.T) {
	x := tensor.New(256)
	x.Fill(1)
	d := Dropout{Rate: 0.4}
	y1, _, _ := d.ForwardAlloc(nil, x, tensor.NewRNG(9))
	y2, _, _ := d.ForwardAlloc(nil, x, tensor.NewRNG(9))
	if diff, _ := tensor.MaxAbsDiff(y1, y2); diff != 0 {
		t.Error("same-seed dropout outputs differ")
	}
	y3, _, _ := d.ForwardAlloc(nil, x, tensor.NewRNG(10))
	if diff, _ := tensor.MaxAbsDiff(y1, y3); diff == 0 {
		t.Error("different-seed dropout outputs identical")
	}
}

// dropoutPass runs d forward over x with a generator seeded seed and back
// with dy.
func dropoutPass(d Dropout, x, dy *tensor.Tensor, seed uint64) (y, dx *tensor.Tensor, err error) {
	y, from, err := d.ForwardAlloc(nil, x, tensor.NewRNG(seed))
	if err != nil {
		return nil, nil, err
	}
	return y, d.BackwardAlloc(nil, dy, from), nil
}
