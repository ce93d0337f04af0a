package serve

import (
	"time"

	"bnff/internal/core"
	"bnff/internal/tensor"
)

// replica is one inference worker. It owns its executor outright — one per
// model generation, answering every batch size, since an executor takes its
// batch size from its input — so replicas never share mutable model state and
// need no locking on the inference path.
type replica struct {
	e     *Engine
	index int              // position in Engine.replicas
	gen   uint64           // model generation exec serves
	exec  *core.Executor   // loop-goroutine-local after start
	buf   []*request       // reusable collect buffer
	in    []*tensor.Tensor // reusable input batch of k images at in[k-1]
}

// loop drains the engine queue until Close: block for one request, coalesce
// followers into a mini-batch, run it, reply to every caller.
func (r *replica) loop() {
	defer r.e.wg.Done()
	for {
		select {
		case first := <-r.e.queue:
			r.run(r.collect(first))
		case <-r.e.stop:
			return
		}
	}
}

// collect coalesces queued requests behind first into one batch: it returns
// as soon as MaxBatch images are in hand or the MaxWait deadline passes. On
// shutdown it returns what it holds so no accepted request goes unanswered.
func (r *replica) collect(first *request) []*request {
	batch := append(r.buf[:0], first)
	max := r.e.cfg.MaxBatch
	if max == 1 {
		return batch
	}
	timer := time.NewTimer(r.e.cfg.MaxWait)
	defer timer.Stop()
	for len(batch) < max {
		select {
		case req := <-r.e.queue:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		case <-r.e.stop:
			return batch
		}
	}
	return batch
}

// run packs the batch into one input tensor, executes a forward pass on the
// replica's executor, and slices the logits back out per request.
// Inference has no cross-sample reductions, so each row is bit-identical to
// what a batch-1 pass over the same image would produce.
func (r *replica) run(batch []*request) {
	r.buf = batch[:0] // reclaim the backing array for the next collect
	k := len(batch)
	// The atomic reload flip: a new model generation published since the last
	// batch retires this replica's executor — the old parameters and
	// workspace go back to the collector — and takes the new generation's
	// once: Reload's validation executor if no other replica has claimed it,
	// else a fresh build. Each batch runs entirely on one generation.
	if m := r.e.model.Load(); m.gen != r.gen {
		r.exec = nil // released before the build, so the two never coexist
		exec := m.probe.Swap(nil)
		if exec == nil {
			var err error
			if exec, err = r.e.buildExecutor(m.blob); err != nil {
				r.fail(batch, err) // r.gen is unchanged: the next batch retries
				return
			}
		}
		r.exec, r.gen = exec, m.gen
	}
	x := r.input(k)
	for i, req := range batch {
		copy(x.Data[i*r.e.imgLen:(i+1)*r.e.imgLen], req.img)
	}
	y, err := r.exec.Forward(x)
	if err != nil {
		r.fail(batch, err)
		return
	}
	per := r.e.classes
	end := r.e.now()
	// Account before replying, so a caller holding its answer finds itself
	// in /stats and /metrics.
	r.e.batchHist[k-1].Add(1)
	r.e.mRequests.Add(int64(k))
	r.e.mBatches.Inc()
	r.e.mOccupancy.Set(int64(k))
	for i, req := range batch {
		logits := make([]float32, per)
		copy(logits, y.Data[i*per:(i+1)*per])
		r.e.mLatency.Observe(end - req.start)
		req.resp <- result{logits: logits}
	}
}

// input returns the replica's input tensor for a batch of k images, one per
// batch size and reused from batch to batch: the executor lets go of its
// input when its next pass starts, and run copies the logits out, so an
// input allocated per batch would only feed the collector.
func (r *replica) input(k int) *tensor.Tensor {
	for len(r.in) < k {
		r.in = append(r.in, nil)
	}
	if r.in[k-1] == nil {
		r.in[k-1] = tensor.New(append(tensor.Shape{k}, r.e.imgShape...)...)
	}
	return r.in[k-1]
}

func (r *replica) fail(batch []*request, err error) {
	for _, req := range batch {
		req.resp <- result{err: err}
	}
}
