package main

import (
	"bytes"
	"fmt"

	"bnff/internal/experiments"
	"bnff/internal/obs"
	"bnff/internal/scenario"
)

// runTrain executes one training scenario Repeats times from identical
// starting conditions and verifies the bit-identical-repeats contract: the
// same seed must yield the same final loss and the same trained-parameter
// checkpoint, byte for byte, every time. The trained-checkpoint digest of the
// first repeat is the scenario's recorded digest.
func runTrain(clock func() int64, sp scenario.Spec) (experiments.BenchScenario, error) {
	var (
		digests     []string
		losses      []float64
		times       []float64
		stepRates   []float64
		reduceBytes []float64
	)
	for rep := 0; rep < sp.Repeats; rep++ {
		tr, err := sp.NewTrainer()
		if err != nil {
			return experiments.BenchScenario{}, err
		}
		t0 := clock()
		res, err := tr.Run(sp.Steps)
		if err != nil {
			return experiments.BenchScenario{}, err
		}
		elapsed := float64(clock() - t0)
		times = append(times, elapsed)
		if elapsed > 0 {
			stepRates = append(stepRates, float64(sp.Steps)/(elapsed/1e9))
		}
		losses = append(losses, res.Loss)
		if g := tr.Group(); g != nil {
			reduceBytes = append(reduceBytes, float64(g.ReduceBytes()))
		}
		var buf bytes.Buffer
		if err := tr.Exec.Save(&buf); err != nil {
			return experiments.BenchScenario{}, err
		}
		digests = append(digests, digestOf(buf.Bytes()))
	}

	check := experiments.BenchCheck{Name: "bit-identical-repeats", Pass: true}
	for i := 1; i < sp.Repeats; i++ {
		if digests[i] != digests[0] {
			check.Pass = false
			check.Detail = fmt.Sprintf("repeat %d checkpoint %s != repeat 0 %s", i, digests[i], digests[0])
			break
		}
		if losses[i] != losses[0] {
			check.Pass = false
			check.Detail = fmt.Sprintf("repeat %d final loss %v != repeat 0 %v", i, losses[i], losses[0])
			break
		}
	}

	metrics := []experiments.BenchMetric{
		{Name: "final_loss", Unit: "loss", Agg: obs.Aggregate(losses)},
		{Name: "train_time", Unit: "ns", Timing: true, Agg: obs.Aggregate(times)},
		{Name: "steps_per_sec", Unit: "steps/s", Timing: true, Agg: obs.Aggregate(stepRates)},
	}
	if len(reduceBytes) > 0 {
		// All-reduce traffic is a pure function of the graph and step count —
		// deterministic, so it lives in the canonical (non-timing) metrics.
		metrics = append(metrics,
			experiments.BenchMetric{Name: "ddp_reduce_bytes", Unit: "bytes", Agg: obs.Aggregate(reduceBytes)})
	}
	return experiments.BenchScenario{
		Name:    sp.Name,
		Spec:    sp,
		Repeats: sp.Repeats,
		Digest:  digests[0],
		Checks:  []experiments.BenchCheck{check},
		Metrics: metrics,
	}, nil
}
