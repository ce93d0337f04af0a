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
	y, mask, err := (Dropout{Rate: 0}).ForwardAlloc(nil, x, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(x, y); d != 0 {
		t.Error("rate 0 changed values")
	}
	for _, m := range mask.Data {
		if m != 1 {
			t.Fatal("rate 0 produced non-identity mask")
		}
	}
}

func TestDropoutSurvivalRateAndScale(t *testing.T) {
	const n = 100000
	x := tensor.New(n)
	x.Fill(1)
	d := Dropout{Rate: 0.3}
	y, mask, err := d.ForwardAlloc(nil, x, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	for i, m := range mask.Data {
		if m != 0 {
			survivors++
			want := float32(1 / 0.7)
			if math.Abs(float64(m-want)) > 1e-6 {
				t.Fatalf("mask scale %v, want %v", m, want)
			}
			if y.Data[i] != m {
				t.Fatalf("output %v != mask %v for unit input", y.Data[i], m)
			}
		} else if y.Data[i] != 0 {
			t.Fatal("dropped element has non-zero output")
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

func TestDropoutBackwardUsesMask(t *testing.T) {
	x := tensor.New(64)
	tensor.NewRNG(4).FillUniform(x, -1, 1)
	d := Dropout{Rate: 0.5}
	_, mask, err := d.ForwardAlloc(nil, x, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	dy := tensor.New(64)
	dy.Fill(2)
	dx, err := d.BackwardAlloc(nil, dy, mask)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dx.Data {
		if dx.Data[i] != 2*mask.Data[i] {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], 2*mask.Data[i])
		}
	}
	if _, err := d.BackwardAlloc(nil, dy, tensor.New(3)); err == nil {
		t.Error("accepted mismatched mask")
	}
}

func TestDropoutDeterministicPerSeed(t *testing.T) {
	x := tensor.New(256)
	x.Fill(1)
	d := Dropout{Rate: 0.4}
	_, m1, _ := d.ForwardAlloc(nil, x, tensor.NewRNG(9))
	_, m2, _ := d.ForwardAlloc(nil, x, tensor.NewRNG(9))
	if diff, _ := tensor.MaxAbsDiff(m1, m2); diff != 0 {
		t.Error("same-seed dropout masks differ")
	}
	_, m3, _ := d.ForwardAlloc(nil, x, tensor.NewRNG(10))
	if diff, _ := tensor.MaxAbsDiff(m1, m3); diff == 0 {
		t.Error("different-seed dropout masks identical")
	}
}
