package train

import (
	"math"
	"testing"

	"bnff/internal/core"
)

func TestConstantLR(t *testing.T) {
	s := ConstantLR(0.1)
	for _, step := range []int{0, 10, 1000} {
		if s.LR(step) != 0.1 {
			t.Errorf("constant LR at %d = %v", step, s.LR(step))
		}
	}
}

func TestStepDecay(t *testing.T) {
	s := StepDecay{Base: 1, Gamma: 0.1, Every: 10}
	cases := map[int]float64{0: 1, 9: 1, 10: 0.1, 19: 0.1, 20: 0.01}
	for step, want := range cases {
		if got := s.LR(step); math.Abs(got-want) > 1e-12 {
			t.Errorf("step decay at %d = %v, want %v", step, got, want)
		}
	}
	if (StepDecay{Base: 1, Gamma: 0.1, Every: 0}).LR(100) != 1 {
		t.Error("step decay with Every=0 should stay at base")
	}
}

func TestCosineDecay(t *testing.T) {
	s := CosineDecay{Base: 1, Floor: 0.1, Total: 100}
	if got := s.LR(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("cosine start = %v, want 1", got)
	}
	mid := s.LR(50)
	if math.Abs(mid-0.55) > 1e-9 {
		t.Errorf("cosine midpoint = %v, want 0.55", mid)
	}
	if got := s.LR(100); got != 0.1 {
		t.Errorf("cosine end = %v, want floor 0.1", got)
	}
	if got := s.LR(500); got != 0.1 {
		t.Errorf("cosine past end = %v, want floor", got)
	}
	// Monotone decreasing within [0, Total].
	prev := math.Inf(1)
	for step := 0; step <= 100; step += 5 {
		cur := s.LR(step)
		if cur > prev {
			t.Errorf("cosine not monotone at %d: %v > %v", step, cur, prev)
		}
		prev = cur
	}
}

func TestValidateSchedule(t *testing.T) {
	bad := []Schedule{
		ConstantLR(0),
		ConstantLR(-1),
		StepDecay{Base: -1, Gamma: 0.5},
		StepDecay{Base: 1, Gamma: 1.5},
		CosineDecay{Base: 1, Floor: 2},
		CosineDecay{Base: 0, Floor: 0},
	}
	for _, s := range bad {
		if err := validateSchedule(s); err == nil {
			t.Errorf("accepted invalid schedule %#v", s)
		}
	}
	good := []Schedule{nil, ConstantLR(0.1), StepDecay{Base: 1, Gamma: 0.5, Every: 5},
		CosineDecay{Base: 1, Floor: 0, Total: 10}}
	for _, s := range good {
		if err := validateSchedule(s); err != nil {
			t.Errorf("rejected valid schedule %#v: %v", s, err)
		}
	}
}

func TestTrainerAppliesSchedule(t *testing.T) {
	tr := newTinyTrainer(t, core.Baseline, 42, WithSchedule(StepDecay{Base: 0.02, Gamma: 0.5, Every: 2}))
	for i := 0; i < 5; i++ {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// After step index 4 (5th step), LR = 0.02·0.5² = 0.005.
	if math.Abs(tr.Opt.LR-0.005) > 1e-12 {
		t.Errorf("optimizer LR = %v, want 0.005", tr.Opt.LR)
	}
	bad := newTinyTrainer(t, core.Baseline, 42, WithSchedule(ConstantLR(0)))
	if _, err := bad.Step(); err == nil {
		t.Error("trainer accepted invalid schedule at step time")
	}
}
