package fleet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeConn is a scriptable backend for control-plane and routing tests.
type fakeConn struct {
	mu         sync.Mutex
	readyErr   error
	predictErr error
	logits     []float32
	gen        uint64
	reloadErr  error
	onReload   func() // called inside Reload, before it answers

	predicts, readyzs, reloads int
}

func (f *fakeConn) set(fn func(*fakeConn)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *fakeConn) Predict(_ []float32) ([]float32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.predicts++
	if f.predictErr != nil {
		return nil, f.predictErr
	}
	return f.logits, nil
}

func (f *fakeConn) Readyz() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readyzs++
	return f.readyErr
}

func (f *fakeConn) Reload(io.Reader) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reloads++
	if f.onReload != nil {
		f.onReload()
	}
	if f.reloadErr != nil {
		return 0, f.reloadErr
	}
	f.gen++
	return f.gen, nil
}

func (f *fakeConn) count(which string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch which {
	case "predicts":
		return f.predicts
	case "readyzs":
		return f.readyzs
	case "reloads":
		return f.reloads
	}
	return -1
}

func TestRegisterDeregisterValidation(t *testing.T) {
	cp := NewControlPlane(Config{})
	if err := cp.Register("", &fakeConn{}); err == nil {
		t.Fatal("accepted empty backend name")
	}
	if err := cp.Register("b1", &fakeConn{}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("b1", &fakeConn{}); !errors.Is(err, ErrDuplicateBackend) {
		t.Fatalf("duplicate register: err = %v, want ErrDuplicateBackend", err)
	}
	if err := cp.Deregister("nope"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown deregister: err = %v, want ErrUnknownBackend", err)
	}
	if err := cp.Deregister("b1"); err != nil {
		t.Fatal(err)
	}
	if n := len(cp.routable()); n != 0 {
		t.Fatalf("routable after deregister = %d backends", n)
	}
}

func TestEjectionBackoffAndReadmission(t *testing.T) {
	const sec = int64(time.Second)
	var now int64
	conn := &fakeConn{}
	cp := NewControlPlane(Config{Clock: func() int64 { return now }})
	if err := cp.Register("b1", conn); err != nil {
		t.Fatal(err)
	}

	down := errors.New("connection refused")
	conn.set(func(f *fakeConn) { f.readyErr = down })
	cp.ProbeOnce()
	cp.ProbeOnce()
	if cp.States()["b1"] != StateActive {
		t.Fatal("ejected before failAfter consecutive failures")
	}
	cp.ProbeOnce()
	if cp.States()["b1"] != StateEjected {
		t.Fatal("not ejected after failAfter consecutive failures")
	}
	if got := cp.Metrics().Counter("bnff_fleet_ejections_total").Value(); got != 1 {
		t.Fatalf("ejections counter = %d, want 1", got)
	}
	if got := cp.Metrics().Gauge("bnff_fleet_active").Value(); got != 0 {
		t.Fatalf("active gauge = %d, want 0", got)
	}

	// Backoff gates re-probes: before backoffBase elapses the ejected
	// backend is not probed at all.
	probes := cp.Metrics().Counter("bnff_fleet_probes_total").Value()
	cp.ProbeOnce()
	if got := cp.Metrics().Counter("bnff_fleet_probes_total").Value(); got != probes {
		t.Fatalf("ejected backend probed before backoff elapsed (%d → %d)", probes, got)
	}

	// After the backoff elapses a failed probe doubles it, capped at
	// backoffMax: 1s → 2s → 4s → 8s → 16s → 30s.
	now = 1 * sec
	cp.ProbeOnce() // fails; backoff 2s, next probe at 3s
	now = 2 * sec
	cp.ProbeOnce()
	if got := cp.Metrics().Counter("bnff_fleet_probes_total").Value(); got != probes+1 {
		t.Fatal("doubled backoff did not gate the re-probe")
	}
	for _, at := range []int64{3, 7, 15, 31} {
		now = at * sec
		cp.ProbeOnce() // fails; backoff 4s, 8s, 16s, then capped at 30s
	}
	if got := cp.Metrics().Counter("bnff_fleet_probes_total").Value(); got != probes+5 {
		t.Fatalf("probes = %d, want %d after four due re-probes", got, probes+5)
	}
	now = 60 * sec
	cp.ProbeOnce()
	if got := cp.Metrics().Counter("bnff_fleet_probes_total").Value(); got != probes+5 {
		t.Fatal("re-probed before the 30s backoff elapsed")
	}

	// Recovery: readmitAfter consecutive successes readmit.
	conn.set(func(f *fakeConn) { f.readyErr = nil })
	now = 61 * sec
	cp.ProbeOnce()
	if got := cp.Metrics().Counter("bnff_fleet_probes_total").Value(); got != probes+6 {
		t.Fatal("backoff not capped at backoffMax: no re-probe 30s after the last failure")
	}
	if cp.States()["b1"] != StateEjected {
		t.Fatal("readmitted after a single success")
	}
	cp.ProbeOnce()
	if cp.States()["b1"] != StateActive {
		t.Fatal("not readmitted after readmitAfter consecutive successes")
	}
	if got := cp.Metrics().Counter("bnff_fleet_readmissions_total").Value(); got != 1 {
		t.Fatalf("readmissions counter = %d, want 1", got)
	}
	if vs := cp.routable(); len(vs) != 1 {
		t.Fatalf("routable after readmission = %+v, want b1", vs)
	}
}

// TestDaemonRejectsNonPositiveProbeInterval checks that Daemon refuses a
// probe interval the ticker cannot run, before it serves or probes, and
// closes the listener it was handed.
func TestDaemonRejectsNonPositiveProbeInterval(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		err = Daemon(context.Background(), ln, NewProxy(Config{}), d)
		if err == nil || !strings.Contains(err.Error(), "probe interval "+d.String()) {
			t.Errorf("Daemon(interval %v) = %v, want an error naming the interval", d, err)
		}
		if c, err := ln.Accept(); err == nil {
			c.Close()
			t.Errorf("Daemon(interval %v) left its listener open", d)
		}
	}
}

// TestDaemonShutdownOnCancel checks the shared shutdown path: canceling the
// daemon's context returns nil and closes the listener.
func TestDaemonShutdownOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- Daemon(ctx, ln, NewProxy(Config{}), time.Hour) }()
	waitHealthy(t, "http://"+ln.Addr().String()+"/healthz")
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("Daemon after cancel = %v, want nil", err)
	}
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("Daemon left its listener open")
	}
}

// waitHealthy polls url until it answers 200.
func waitHealthy(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if resp, err := http.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never answered 200", url)
}

// TestClocklessControlPlaneReadmits checks Config.Clock's nil contract:
// without a clock, backoff never gates a re-probe, so a recovered backend is
// readmitted after readmitAfter sweeps.
func TestClocklessControlPlaneReadmits(t *testing.T) {
	conn := &fakeConn{readyErr: errors.New("down")}
	cp := NewControlPlane(Config{})
	if err := cp.Register("b1", conn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < failAfter; i++ {
		cp.ProbeOnce()
	}
	if cp.States()["b1"] != StateEjected {
		t.Fatal("setup: backend not ejected")
	}
	conn.set(func(f *fakeConn) { f.readyErr = nil })
	for i := 0; i < readmitAfter; i++ {
		cp.ProbeOnce()
	}
	if cp.States()["b1"] != StateActive {
		t.Fatalf("recovered backend still %s after %d clockless sweeps", cp.States()["b1"], readmitAfter)
	}
}

func TestProbeSuccessResetsFailures(t *testing.T) {
	conn := &fakeConn{}
	cp := NewControlPlane(Config{})
	if err := cp.Register("b1", conn); err != nil {
		t.Fatal(err)
	}
	down := errors.New("down")
	conn.set(func(f *fakeConn) { f.readyErr = down })
	cp.ProbeOnce()
	cp.ProbeOnce()
	conn.set(func(f *fakeConn) { f.readyErr = nil })
	cp.ProbeOnce() // success: failure streak resets
	conn.set(func(f *fakeConn) { f.readyErr = down })
	cp.ProbeOnce()
	cp.ProbeOnce()
	if cp.States()["b1"] != StateActive {
		t.Fatal("failure streak survived an intervening success")
	}
}

// TestProbeSweepReadsOnlyReadiness checks that a sweep costs one readiness
// check per probed backend: an active backend and an ejected one due for a
// re-probe each see one Readyz.
func TestProbeSweepReadsOnlyReadiness(t *testing.T) {
	var now int64
	active, ejected := &fakeConn{}, &fakeConn{readyErr: errors.New("down")}
	cp := NewControlPlane(Config{Clock: func() int64 { return now }})
	if err := cp.Register("active", active); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("ejected", ejected); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < failAfter; i++ {
		cp.ProbeOnce()
	}
	if cp.States()["ejected"] != StateEjected {
		t.Fatal("setup: backend not ejected")
	}
	before := map[*fakeConn]int{active: active.count("readyzs"), ejected: ejected.count("readyzs")}
	ejected.set(func(f *fakeConn) { f.readyErr = nil })
	now = backoffBase // the re-probe is due
	cp.ProbeOnce()
	for name, c := range map[string]*fakeConn{"active": active, "ejected": ejected} {
		if got := c.count("readyzs") - before[c]; got != 1 {
			t.Errorf("%s backend: %d Readyz calls in one sweep, want 1", name, got)
		}
	}
}

func TestStatusSortedAndComplete(t *testing.T) {
	cp := NewControlPlane(Config{})
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := cp.Register(name, &fakeConn{}); err != nil {
			t.Fatal(err)
		}
	}
	st := cp.Status()
	if st.Policy != "hash" {
		t.Fatalf("status policy = %q", st.Policy)
	}
	var names []string
	for _, b := range st.Backends {
		names = append(names, b.Name)
		if b.State != "active" {
			t.Fatalf("backend %s state %q, want active", b.Name, b.State)
		}
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("status order %v, want %v", names, want)
		}
	}
}
