// Package fleet is the serving control plane: a front proxy that routes
// predictions across N backend serving processes, watches their health, and
// rolls checkpoint hot-swaps through them one backend at a time.
//
// The pieces compose the same way the single-process serving stack does:
//
//   - Conn abstracts one backend — EngineConn wraps an in-process
//     *serve.Engine (deterministic tests, experiment drills), HTTPConn speaks
//     the bnff-serve ops surface over the wire (the bnff-proxy daemon).
//   - Policy orders the routable backends for a request key by rendezvous
//     (highest-random-weight) hashing on an FNV-1a score, a pure function of
//     key and membership, so routing under a fake clock replays
//     bit-identically.
//   - ControlPlane owns membership (register/deregister), the per-backend
//     state machine (active → draining → ejected → readmitted), periodic
//     readiness probing against an injectable clock, and ejection backoff.
//   - Proxy fronts it all with the HTTP surface: POST /predict with
//     failover, fleet admin endpoints, and a rolling /fleet/reload that
//     drains one backend at a time so serving capacity never drops below
//     N−1.
//
// fleet is one of the module's sanctioned concurrency domains (with
// parallel, serve, obs, and ddp): the daemon and probe loops own goroutines
// here so cmd/bnff-proxy stays a flag-parsing shell, per the poolonly
// contract.
package fleet

import (
	"errors"
	"io"
)

// ErrNoBackends is returned by Proxy.Predict when no registered backend is
// routable (none registered, all draining or ejected, or every candidate
// refused as unavailable). Maps to HTTP 503.
var ErrNoBackends = errors.New("fleet: no routable backends")

// ErrUnavailable classifies a backend that cannot take traffic right now:
// connection refused, closed, draining, or an HTTP 503 from its ops surface.
// The proxy fails over past it and counts the failure toward ejection.
var ErrUnavailable = errors.New("fleet: backend unavailable")

// ErrUnknownBackend is returned by control-plane operations naming a backend
// that is not registered.
var ErrUnknownBackend = errors.New("fleet: unknown backend")

// ErrDuplicateBackend is returned by Register when the name is taken.
var ErrDuplicateBackend = errors.New("fleet: backend already registered")

// Conn is one backend as the fleet sees it: the serving surface (Predict),
// the health split (Healthz liveness, Readyz readiness), and the lifecycle
// verbs the rolling reload drives (QueueDepth among them).
//
// Error taxonomy: Predict returns serve.ErrOverloaded on load shed (the
// proxy tries the next backend, 429 only when every backend sheds),
// a serve.ErrBadImage-wrapped error on malformed input (terminal — retrying
// elsewhere cannot help), and an ErrUnavailable-wrapped error when the
// backend cannot serve at all (failover + ejection accounting).
type Conn interface {
	// Predict runs one image and returns the model's logits.
	Predict(img []float32) ([]float32, error)
	// Healthz reports liveness: nil while the backend process should stay up.
	Healthz() error
	// Readyz reports readiness: nil while the backend may take new traffic.
	Readyz() error
	// QueueDepth returns the backend's instantaneous request-queue depth.
	// Its one reader is the rolling reload's wait for a drained backend to
	// go idle.
	QueueDepth() (int, error)
	// Reload hot-swaps the backend's checkpoint and returns the new model
	// generation.
	Reload(ckpt io.Reader) (uint64, error)
	// Drain stops the backend accepting new work while queued work finishes.
	Drain() error
	// Undrain returns a drained backend to service.
	Undrain() error
	// Close releases the connection (and, for in-process backends, the
	// engine).
	Close() error
}
