// Package serve is the batched inference-serving runtime: it turns a trained
// checkpoint into an HTTP-servable model the way the paper's fission/fusion
// turns training-time BN sweeps into amortized ones — by coalescing
// single-image requests into mini-batches so every feature-map sweep is paid
// once per batch instead of once per request.
//
// The subsystem has three pieces:
//
//   - A dynamic micro-batcher (Engine): incoming single-image requests queue
//     into a bounded channel and are coalesced into a mini-batch when either
//     MaxBatch images are waiting or the MaxWait deadline expires. Under
//     backpressure the queue sheds load explicitly (ErrOverloaded → HTTP 429)
//     rather than blocking or dropping silently.
//
//   - A replica pool: each of Replicas worker goroutines owns one inference
//     executor per model generation — it answers every batch size, since an
//     executor takes its batch size from its input — built at Load (and once
//     more after a Reload) WithInference and, when FoldBN is set, compiled
//     through the CONV→BN fold pass (core.WithFoldedBN) so foldable BNs cost
//     nothing at serving time.
//
//   - An ops surface (Handler/Daemon): POST /predict, GET /healthz, and
//     GET /stats, with request counts, a batch-size histogram, queue depth,
//     and p50/p99 latency. Each is one engine-wide set of atomic counters
//     that every replica adds to, so a snapshot depends only on what was
//     served, not on which replica served it.
//
// Determinism: inference has no cross-sample reductions, so a request's
// logits are bit-identical no matter which batch it is coalesced into —
// batch-8 serving replays the batch-1 reference exactly (the tests assert
// this bit for bit). The serving runtime itself is the module's one
// concurrency domain outside internal/parallel: the bnff-lint poolonly
// analyzer allowlists this package, and wall-clock latency flows through the
// injected Config.Clock so library code stays free of time.Now (seededrand).
package serve

import (
	"errors"

	"bnff/internal/graph"
)

// Builder constructs the served model's graph at a nominal mini-batch size
// (the engine passes MaxBatch; the executor over it answers any size), exactly
// like models.Builder (kept structural so the engine does not depend on the
// registry; cmd/bnff-serve passes a registry closure).
type Builder func(batch int) (*graph.Graph, error)

// ErrOverloaded is returned by Predict when the bounded request queue is
// full: the caller should shed the request (HTTP 429) and retry later.
var ErrOverloaded = errors.New("serve: request queue full")

// ErrClosed is returned by Predict once the engine has shut down.
var ErrClosed = errors.New("serve: engine closed")

// ErrDraining is returned by Predict while the engine is in its drain state:
// new requests are refused (a fleet proxy retries them on another backend)
// while requests already queued finish normally. HTTP maps it to 503.
var ErrDraining = errors.New("serve: engine draining")

// ErrReloadBusy is returned by Reload when another reload is still in
// flight; retry once the first one has swapped or failed (HTTP 409).
var ErrReloadBusy = errors.New("serve: reload already in progress")
