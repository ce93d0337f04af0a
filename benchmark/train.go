package main

import (
	"runtime"
)

// blockStats is one timed training block.
type blockStats struct {
	steps     int
	elapsedNs int64
	meanLoss  float64
	samples   int
}

func (s blockStats) samplesPerS() float64 { return float64(s.samples) / (float64(s.elapsedNs) / 1e9) }

// trainBlock runs steps steps of restructuring r back to back and times them
// as one block. The collector runs first, outside the timing, so no block
// inherits another's garbage.
func (b *bench) trainBlock(r, steps int, step func(r int) (loss float64, err error)) (blockStats, error) {
	runtime.GC()
	s := blockStats{steps: steps, samples: steps * b.cfg.Batch}
	var lossSum float64
	start := b.clock()
	for i := 0; i < steps; i++ {
		loss, err := step(r)
		if err != nil {
			return s, err
		}
		lossSum += loss
	}
	s.elapsedNs = b.clock() - start
	s.meanLoss = lossSum / float64(steps)
	return s, nil
}

// trainResult accumulates, per restructuring, the rate and mean loss of every
// block.
type trainResult struct{ rates, losses [][]float64 }

// trainRounds runs interleaved rounds — one block of the workload's
// block_steps steps per restructuring, in order — for about budgetNs (at least
// one round) and appends each block to res. A burst of outside noise then
// slows a few blocks of all three restructurings instead of most blocks of
// one. On the compute workloads a block is a single step of 0.4–1 s, itself
// hundreds of kernel calls: more steps per block would leave too few blocks
// in a run to take a quartile of.
func (b *bench) trainRounds(res *trainResult, budgetNs int64, heap *heapWatch) error {
	if res.rates == nil {
		res.rates = make([][]float64, len(restructurings))
		res.losses = make([][]float64, len(restructurings))
	}
	start := b.clock()
	for round := 1; ; round++ {
		for r := range restructurings {
			s, err := b.trainBlock(r, b.cfg.BlockSteps, b.step)
			if err != nil {
				return err
			}
			res.rates[r] = append(res.rates[r], s.samplesPerS())
			res.losses[r] = append(res.losses[r], s.meanLoss)
			heap.sample()
		}
		elapsed := b.clock() - start
		if elapsed+elapsed/int64(2*round) >= budgetNs { // one more round would end further from budgetNs
			return nil
		}
	}
}

// heapWatch keeps the largest heap the runtime has held, sampled after every
// set-up, block and cycle (HeapSys only grows, so sampling late loses nothing).
type heapWatch struct{ peakBytes uint64 }

func (h *heapWatch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapSys > h.peakBytes {
		h.peakBytes = ms.HeapSys
	}
}
