package train

import (
	"fmt"
	"math"
)

// Schedule maps a step index to a learning rate — the hyper-parameter the
// paper's §1 names among those that force training to be re-run repeatedly.
type Schedule interface {
	LR(step int) float64
}

// ConstantLR is a fixed learning rate.
type ConstantLR float64

// LR implements Schedule.
func (c ConstantLR) LR(int) float64 { return float64(c) }

// StepDecay multiplies the base rate by Gamma every Every steps — the
// classic ImageNet schedule (÷10 every 30 epochs).
type StepDecay struct {
	Base  float64
	Gamma float64
	Every int
}

// LR implements Schedule.
func (s StepDecay) LR(step int) float64 {
	if s.Every <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Gamma, float64(step/s.Every))
}

// CosineDecay anneals from Base to Floor over Total steps and stays at
// Floor afterwards.
type CosineDecay struct {
	Base  float64
	Floor float64
	Total int
}

// LR implements Schedule.
func (c CosineDecay) LR(step int) float64 {
	if c.Total <= 0 || step >= c.Total {
		return c.Floor
	}
	frac := float64(step) / float64(c.Total)
	return c.Floor + float64((c.Base-c.Floor)*0.5*(1+math.Cos(math.Pi*frac)))
}

// validateSchedule sanity-checks user-provided schedule parameters.
func validateSchedule(s Schedule) error {
	switch v := s.(type) {
	case nil:
		return nil
	case ConstantLR:
		if v <= 0 {
			return fmt.Errorf("train: constant LR %v must be positive", float64(v))
		}
	case StepDecay:
		if v.Base <= 0 || v.Gamma <= 0 || v.Gamma > 1 {
			return fmt.Errorf("train: step decay base %v gamma %v invalid", v.Base, v.Gamma)
		}
	case CosineDecay:
		if v.Base <= 0 || v.Floor < 0 || v.Floor > v.Base {
			return fmt.Errorf("train: cosine decay base %v floor %v invalid", v.Base, v.Floor)
		}
	}
	return nil
}
