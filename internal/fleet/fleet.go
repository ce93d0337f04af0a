// Package fleet is the serving control plane: a front proxy that routes
// predictions across N backend serving processes, watches their health, and
// rolls checkpoint hot-swaps through them one backend at a time.
//
// The pieces compose the same way the single-process serving stack does:
//
//   - Conn abstracts one backend as Predict, Readyz and Reload —
//     EngineConn wraps an in-process *serve.Engine (deterministic tests,
//     experiment drills), HTTPConn speaks the bnff-serve ops surface over
//     the wire (the bnff-proxy daemon).
//   - Policy orders the routable backends for a request key by rendezvous
//     (highest-random-weight) hashing on an FNV-1a score, a pure function of
//     key and membership, so routing under a fake clock replays
//     bit-identically.
//   - ControlPlane owns membership (register/deregister), the per-backend
//     state machine (active → ejected → readmitted), periodic readiness
//     probing against an injectable clock, and ejection backoff.
//   - Proxy fronts it all with the HTTP surface: POST /predict with
//     failover, fleet admin endpoints, and a rolling /fleet/reload that
//     hot-swaps one backend at a time. Each backend's Reload is hitless
//     (serve.Engine validates the new image beside the old generation and
//     flips atomically), so no backend leaves rotation. A backend that
//     drains itself (bnff-serve on SIGTERM) answers 503 on /readyz and
//     /predict, so the proxy fails over past it and ejects it.
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
// routable (none registered, all ejected, or every candidate refused as
// unavailable). Maps to HTTP 503.
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
// the readiness the probe sweep checks (Readyz), and the hot-swap the rolling
// reload drives (Reload).
//
// Error taxonomy: Predict returns serve.ErrOverloaded on load shed (the
// proxy tries the next backend, 429 only when every backend sheds),
// a serve.ErrBadImage-wrapped error on malformed input (terminal — retrying
// elsewhere cannot help), and an ErrUnavailable-wrapped error when the
// backend cannot serve at all (failover + ejection accounting).
type Conn interface {
	// Predict runs one image and returns the model's logits.
	Predict(img []float32) ([]float32, error)
	// Readyz reports readiness: nil while the backend may take new traffic.
	Readyz() error
	// Reload hot-swaps the backend's checkpoint and returns the new model
	// generation.
	Reload(ckpt io.Reader) (uint64, error)
}
