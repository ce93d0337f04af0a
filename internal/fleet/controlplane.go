package fleet

import (
	"context"
	"fmt"
	"time"

	"bnff/internal/det"
	"bnff/internal/obs"
	"sync"
)

// State is one backend's position in the control-plane state machine.
type State int

const (
	// StateActive backends take new assignments.
	StateActive State = iota
	// StateEjected backends failed too many consecutive probes; they are
	// re-probed on a doubling backoff and readmitted after sustained
	// recovery.
	StateEjected
)

// String returns the state's wire name.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateEjected:
		return "ejected"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// backend is one registered backend plus its health bookkeeping. All fields
// past conn are guarded by the control plane's mutex.
type backend struct {
	name string
	conn Conn

	state      State
	failures   int    // consecutive readiness failures while active
	successes  int    // consecutive readiness successes while ejected
	backoff    int64  // current ejected re-probe backoff, clock ns
	nextProbe  int64  // clock reading at which the next ejected probe is due
	generation uint64 // last observed model generation
}

// Ejection thresholds. failAfter consecutive failed readiness checks
// (probes or predict-path unavailability) eject a backend; an ejected one is
// re-probed after backoffBase clock nanoseconds, a delay that doubles per
// failed re-probe up to backoffMax, and readmitAfter consecutive successful
// probes readmit it.
const (
	failAfter    = 3
	readmitAfter = 2
	backoffBase  = int64(time.Second)
	backoffMax   = int64(30 * time.Second)
)

// Config parameterizes a ControlPlane. The zero value is usable. The control
// plane makes its own metrics registry, read through ControlPlane.Metrics and
// exposed by the proxy's GET /metrics.
type Config struct {
	// Policy orders routable backends per request.
	Policy Policy

	// Clock supplies monotonic nanoseconds for ejection backoff. Library
	// code must not read the wall clock (the seededrand contract): the
	// daemon injects one from cmd/, tests inject fakes. With a nil Clock
	// backoff never gates a re-probe: every sweep probes every ejected
	// backend, the right degenerate behavior for tests that step ProbeOnce
	// by hand.
	Clock func() int64
}

// ControlPlane owns fleet membership and the per-backend health state
// machine. Probing is explicit (ProbeOnce) so tests drive it
// deterministically; ProbeLoop wraps it in a ticker for daemons.
type ControlPlane struct {
	cfg     Config
	metrics *obs.Registry

	mu       sync.Mutex
	backends map[string]*backend

	mProbes    *obs.Counter
	mEjections *obs.Counter
	mReadmits  *obs.Counter
	mBackends  *obs.Gauge
	mActive    *obs.Gauge
}

// NewControlPlane builds an empty control plane.
func NewControlPlane(cfg Config) *ControlPlane {
	reg := obs.NewRegistry()
	return &ControlPlane{
		cfg:        cfg,
		metrics:    reg,
		backends:   make(map[string]*backend),
		mProbes:    reg.Counter("bnff_fleet_probes_total"),
		mEjections: reg.Counter("bnff_fleet_ejections_total"),
		mReadmits:  reg.Counter("bnff_fleet_readmissions_total"),
		mBackends:  reg.Gauge("bnff_fleet_backends"),
		mActive:    reg.Gauge("bnff_fleet_active"),
	}
}

// Metrics returns the control plane's registry.
func (cp *ControlPlane) Metrics() *obs.Registry { return cp.metrics }

// Policy returns the routing policy in force.
func (cp *ControlPlane) Policy() Policy { return cp.cfg.Policy }

func (cp *ControlPlane) now() int64 {
	if cp.cfg.Clock != nil {
		return cp.cfg.Clock()
	}
	return 0
}

// Register adds a named backend in the active state.
func (cp *ControlPlane) Register(name string, conn Conn) error {
	if name == "" {
		return fmt.Errorf("fleet: empty backend name")
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, ok := cp.backends[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateBackend, name)
	}
	cp.backends[name] = &backend{name: name, conn: conn, state: StateActive}
	cp.updateGaugesLocked()
	return nil
}

// Deregister removes a backend from the fleet. The connection is not closed:
// the backend process belongs to whoever started it.
func (cp *ControlPlane) Deregister(name string) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, ok := cp.backends[name]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownBackend, name)
	}
	delete(cp.backends, name)
	cp.updateGaugesLocked()
	return nil
}

// NoteFailure records a predict-path unavailability for a backend — the
// same evidence as a failed probe, so repeated failover past a dead backend
// ejects it without waiting for the next sweep.
func (cp *ControlPlane) NoteFailure(name string) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	b, ok := cp.backends[name]
	if !ok || b.state != StateActive {
		return
	}
	cp.recordFailureLocked(b)
}

// recordFailureLocked advances an active backend's failure count, ejecting
// at the threshold.
func (cp *ControlPlane) recordFailureLocked(b *backend) {
	b.failures++
	if b.failures < failAfter {
		return
	}
	b.state = StateEjected
	b.successes = 0
	b.backoff = backoffBase
	b.nextProbe = cp.now() + b.backoff
	cp.mEjections.Inc()
	cp.updateGaugesLocked()
}

// ProbeOnce runs one health sweep in sorted-name order, one readiness check
// per probed backend: active backends are checked (failAfter consecutive
// failures eject); ejected backends whose backoff has elapsed — every one,
// without a Clock — are re-probed (readmitAfter consecutive successes
// readmit, failure doubles the backoff up to backoffMax). Probes run outside
// the membership lock so a hung backend cannot wedge routing.
func (cp *ControlPlane) ProbeOnce() {
	now := cp.now()

	type job struct {
		name string
		conn Conn
	}
	var jobs []job
	cp.mu.Lock()
	for _, name := range det.SortedKeys(cp.backends) {
		b := cp.backends[name]
		if b.state == StateEjected && cp.cfg.Clock != nil && now < b.nextProbe {
			continue
		}
		jobs = append(jobs, job{name: b.name, conn: b.conn})
	}
	cp.mu.Unlock()

	for _, j := range jobs {
		cp.mProbes.Inc()
		err := j.conn.Readyz()
		cp.mu.Lock()
		b, ok := cp.backends[j.name]
		if !ok { // deregistered mid-sweep
			cp.mu.Unlock()
			continue
		}
		switch b.state {
		case StateActive:
			if err != nil {
				cp.recordFailureLocked(b)
			} else {
				b.failures = 0
			}
		case StateEjected:
			if err != nil {
				b.successes = 0
				b.backoff *= 2
				if b.backoff > backoffMax {
					b.backoff = backoffMax
				}
				b.nextProbe = cp.now() + b.backoff
			} else {
				b.successes++
				b.nextProbe = cp.now() // eligible again next sweep
				if b.successes >= readmitAfter {
					b.state = StateActive
					b.failures, b.successes, b.backoff = 0, 0, 0
					cp.mReadmits.Inc()
					cp.updateGaugesLocked()
				}
			}
		}
		cp.mu.Unlock()
	}
}

// ProbeLoop runs ProbeOnce every interval until ctx is canceled — the
// daemon-mode wrapper around the steppable sweep.
func (cp *ControlPlane) ProbeLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			cp.ProbeOnce()
		}
	}
}

// routable snapshots the active backends as policy views, sorted by name.
func (cp *ControlPlane) routable() []BackendView {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var views []BackendView
	for _, name := range det.SortedKeys(cp.backends) {
		b := cp.backends[name]
		if b.state == StateActive {
			views = append(views, BackendView{Name: b.name})
		}
	}
	return views
}

// names returns every registered backend's name, sorted, whatever its state.
func (cp *ControlPlane) names() []string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return det.SortedKeys(cp.backends)
}

// get returns a backend's connection by name.
func (cp *ControlPlane) get(name string) (Conn, bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	b, ok := cp.backends[name]
	if !ok {
		return nil, false
	}
	return b.conn, true
}

// setGeneration records a backend's last observed model generation.
func (cp *ControlPlane) setGeneration(name string, gen uint64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if b, ok := cp.backends[name]; ok {
		b.generation = gen
	}
}

// updateGaugesLocked refreshes the membership gauges; callers hold cp.mu.
func (cp *ControlPlane) updateGaugesLocked() {
	active := 0
	for _, b := range cp.backends {
		if b.state == StateActive {
			active++
		}
	}
	cp.mBackends.Set(int64(len(cp.backends)))
	cp.mActive.Set(int64(active))
}

// BackendStatus is one backend's row in the /fleet/status snapshot.
type BackendStatus struct {
	Name       string `json:"name"`
	State      string `json:"state"`
	Failures   int    `json:"failures"`
	Generation uint64 `json:"generation"`
}

// Status is the /fleet/status reply.
type Status struct {
	Policy   string          `json:"policy"`
	Backends []BackendStatus `json:"backends"`
}

// Status snapshots the fleet, backends in sorted-name order.
func (cp *ControlPlane) Status() Status {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	st := Status{Policy: cp.cfg.Policy.Name(), Backends: []BackendStatus{}}
	for _, name := range det.SortedKeys(cp.backends) {
		b := cp.backends[name]
		st.Backends = append(st.Backends, BackendStatus{
			Name:       b.name,
			State:      b.state.String(),
			Failures:   b.failures,
			Generation: b.generation,
		})
	}
	return st
}

// States returns name → state for every registered backend — the compact
// snapshot tests assert on.
func (cp *ControlPlane) States() map[string]State {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make(map[string]State, len(cp.backends))
	for name, b := range cp.backends {
		out[name] = b.state
	}
	return out
}
