package serve

// Stats is a point-in-time snapshot of the engine's serving counters. There
// is one copy of each, engine-wide, which every replica adds to without a
// lock: Requests, Batches and Rejected read the bnff_serve_* counters,
// BatchHist the engine's atomic count per batch size.
type Stats struct {
	// Requests is the number of images answered by an inference batch.
	Requests uint64 `json:"requests"`
	// Batches is the number of coalesced mini-batches dispatched.
	Batches uint64 `json:"batches"`
	// Rejected counts load-shed requests (queue full → ErrOverloaded/429).
	Rejected uint64 `json:"rejected"`
	// QueueDepth is the instantaneous number of queued requests.
	QueueDepth int `json:"queue_depth"`
	// Generation is the model generation being served: 1 at Load, +1 per
	// successful Reload.
	Generation uint64 `json:"generation"`
	// Draining reports the drain state Daemon enters on SIGTERM (new
	// requests refused while queued ones finish).
	Draining bool `json:"draining"`
	// BatchHist[i] is the number of dispatched batches of size i+1, up to
	// MaxBatch.
	BatchHist []uint64 `json:"batch_hist"`
	// P50Nanos and P99Nanos are latency quantiles (enqueue to reply) read
	// from the engine's bnff_serve_latency_ns histogram — power-of-two
	// nanosecond buckets, the quantile being its bucket's upper bound, so
	// both are a pure function of the multiset of recorded durations: no
	// sampling, no reservoir, the same answer on every run with the same
	// (injected) clock. Zero until requests have been served or when no
	// Clock was injected.
	P50Nanos int64 `json:"p50_ns"`
	P99Nanos int64 `json:"p99_ns"`
}
