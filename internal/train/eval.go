package train

import (
	"fmt"
	"math"

	"bnff/internal/core"
	"bnff/internal/det"
	"bnff/internal/layers"
	"bnff/internal/tensor"
	"bnff/internal/workload"
)

// EvalResult summarizes held-out evaluation.
type EvalResult struct {
	Loss     float64
	Accuracy float64
	Samples  int
}

// Evaluate runs the executor in inference mode over batches×batchSize fresh
// samples without updating anything, restoring the executor's previous mode
// afterwards. batchSize is free: the executor takes its batch size from its
// input, so the training executor evaluates at any size, 1 included.
func Evaluate(exec *core.Executor, data *workload.Dataset, batches, batchSize int) (EvalResult, error) {
	if batches < 1 || batchSize < 1 {
		return EvalResult{}, fmt.Errorf("train: evaluate needs positive batches (%d) and batch size (%d)", batches, batchSize)
	}
	restore := exec.EvalMode()
	defer restore()

	var res EvalResult
	for i := 0; i < batches; i++ {
		x, labels, err := data.Batch(batchSize)
		if err != nil {
			return res, err
		}
		logits, err := exec.Forward(x)
		if err != nil {
			return res, err
		}
		loss, _, err := layers.SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			return res, err
		}
		acc, err := layers.Accuracy(logits, labels)
		if err != nil {
			return res, err
		}
		res.Loss += float64(loss * float64(batchSize))
		res.Accuracy += float64(acc * float64(batchSize))
		res.Samples += batchSize
	}
	res.Loss /= float64(res.Samples)
	res.Accuracy /= float64(res.Samples)
	return res, nil
}

// ClipGradients scales the gradient set so its global L2 norm does not
// exceed maxNorm, returning the pre-clip norm. A non-positive maxNorm is an
// error.
func ClipGradients(grads map[string]*tensor.Tensor, maxNorm float64) (float64, error) {
	if maxNorm <= 0 {
		return 0, fmt.Errorf("train: clip norm %v must be positive", maxNorm)
	}
	// Accumulate the norm in sorted-name order: summation over a map range
	// would associate the additions differently run to run, making the clip
	// scale — and therefore the whole training trajectory — nondeterministic.
	var sumsq float64
	for _, name := range det.SortedKeys(grads) {
		for _, v := range grads[name].Data {
			sumsq += float64(float64(v) * float64(v))
		}
	}
	norm := math.Sqrt(sumsq)
	if norm > maxNorm {
		scale := float32(maxNorm / norm)
		for _, g := range grads {
			g.Scale(scale)
		}
	}
	return norm, nil
}
