package fleet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bnff/internal/serve"
)

// keyPreferring finds a routing key whose hash order leads with the wanted
// backend, so failover tests control which backend is tried first.
func keyPreferring(t *testing.T, p Policy, vs []BackendView, want string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("probe-%d", i)
		if p.Order(key, vs)[0] == want {
			return key
		}
	}
	t.Fatalf("no key prefers backend %s", want)
	return ""
}

func TestPredictNoBackends(t *testing.T) {
	p := NewProxy(Config{})
	if _, err := p.Predict("k", nil); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want ErrNoBackends", err)
	}
}

func TestPredictFailoverPastUnavailableAndEjects(t *testing.T) {
	down := &fakeConn{predictErr: fmt.Errorf("%w: connection refused", ErrUnavailable)}
	up := &fakeConn{logits: []float32{1, 2, 3}}
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	if err := cp.Register("down", down); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("up", up); err != nil {
		t.Fatal(err)
	}
	key := keyPreferring(t, cp.Policy(), cp.routable(), "down")

	for i := 0; i < 3; i++ {
		logits, err := p.Predict(key, nil)
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		if len(logits) != 3 || logits[0] != 1 {
			t.Fatalf("predict %d: wrong logits %v", i, logits)
		}
	}
	// Three failovers noted three failures: the dead backend is ejected and
	// no longer even tried.
	if cp.States()["down"] != StateEjected {
		t.Fatal("dead backend not ejected after failAfter predict-path failures")
	}
	before := down.count("predicts")
	if _, err := p.Predict(key, nil); err != nil {
		t.Fatal(err)
	}
	if down.count("predicts") != before {
		t.Fatal("ejected backend still receives traffic")
	}
	if got := p.cp.Metrics().Counter("bnff_fleet_failovers_total").Value(); got != 3 {
		t.Fatalf("failovers counter = %d, want 3", got)
	}
}

func TestPredictOverloadSemantics(t *testing.T) {
	shed := &fakeConn{predictErr: serve.ErrOverloaded}
	up := &fakeConn{logits: []float32{9}}
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	if err := cp.Register("shed", shed); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("up", up); err != nil {
		t.Fatal(err)
	}
	key := keyPreferring(t, cp.Policy(), cp.routable(), "shed")

	// One backend shedding is invisible: the request lands on the other.
	logits, err := p.Predict(key, nil)
	if err != nil || logits[0] != 9 {
		t.Fatalf("predict = %v, %v; want failover success", logits, err)
	}
	// Overload is not unavailability — no ejection evidence accrues.
	if cp.Status().Backends[0].Failures != 0 {
		t.Fatal("overload counted toward ejection")
	}

	// Every backend shedding surfaces as ErrOverloaded (429), not 503.
	up.set(func(f *fakeConn) { f.predictErr = serve.ErrOverloaded })
	if _, err := p.Predict(key, nil); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("all-overloaded err = %v, want serve.ErrOverloaded", err)
	}
	if got := p.cp.Metrics().Counter("bnff_fleet_shed_total").Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

func TestPredictBadImageIsTerminal(t *testing.T) {
	bad := &fakeConn{predictErr: fmt.Errorf("%w: got 3 floats", serve.ErrBadImage)}
	other := &fakeConn{logits: []float32{1}}
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	if err := cp.Register("bad", bad); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("other", other); err != nil {
		t.Fatal(err)
	}
	key := keyPreferring(t, cp.Policy(), cp.routable(), "bad")
	if _, err := p.Predict(key, nil); !errors.Is(err, serve.ErrBadImage) {
		t.Fatalf("err = %v, want serve.ErrBadImage", err)
	}
	if other.count("predicts") != 0 {
		t.Fatal("bad image was retried on another backend")
	}
}

// TestRollingReloadKeepsEveryBackendRoutable checks that a roll is one
// Reload per backend in sorted-name order and nothing else: no backend leaves
// rotation, not even during its own reload.
func TestRollingReloadKeepsEveryBackendRoutable(t *testing.T) {
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	var order []string
	fakes := map[string]*fakeConn{}
	for _, name := range []string{"c", "a", "b"} {
		f := &fakeConn{}
		f.onReload = func() {
			order = append(order, name)
			routable := false
			for _, v := range cp.routable() {
				routable = routable || v.Name == name
			}
			if !routable {
				t.Errorf("%s not routable during its own reload", name)
			}
		}
		fakes[name] = f
		if err := cp.Register(name, f); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := p.RollingReload([]byte("ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("reload order %v, want [a b c]", order)
	}
	for name, f := range fakes {
		if gens[name] != 1 {
			t.Fatalf("generation map %v, want 1 for %s", gens, name)
		}
		if f.count("reloads") != 1 || f.count("predicts") != 0 || f.count("readyzs") != 0 {
			t.Fatalf("backend %s: reloads/predicts/readyzs = %d/%d/%d, want 1/0/0",
				name, f.count("reloads"), f.count("predicts"), f.count("readyzs"))
		}
		if cp.States()[name] != StateActive {
			t.Fatalf("backend %s left %s after the roll", name, cp.States()[name])
		}
	}
	for _, bs := range cp.Status().Backends {
		if bs.Generation != 1 {
			t.Fatalf("status generation %+v, want 1", bs)
		}
	}
}

func TestRollingReloadAbortsOnRejectionAndRestoresService(t *testing.T) {
	a := &fakeConn{}
	b := &fakeConn{reloadErr: errors.New("checkpoint rejected")}
	c := &fakeConn{}
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	if err := cp.Register("a", a); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("b", b); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("c", c); err != nil {
		t.Fatal(err)
	}
	gens, err := p.RollingReload([]byte("ckpt"))
	if err == nil {
		t.Fatal("rolling reload swallowed a backend rejection")
	}
	if gens["a"] != 1 {
		t.Fatalf("first backend should have reloaded before the abort: %v", gens)
	}
	if _, ok := gens["c"]; ok {
		t.Fatalf("roll continued past the rejecting backend: %v", gens)
	}
	if c.count("reloads") != 0 {
		t.Fatal("later backend was reloaded after the abort")
	}
	// The rejecting backend stays in rotation on its old generation — a
	// failed roll must not shrink capacity.
	if cp.States()["b"] != StateActive {
		t.Fatal("rejecting backend left out of rotation")
	}
}

// TestRollingReloadCoversEjectedBackend checks that a roll reloads every
// registered backend, an ejected one too, so it serves the new generation
// once readmitted; and that an ejected backend failing its reload stops the
// roll with an error naming it, as a rejection does.
func TestRollingReloadCoversEjectedBackend(t *testing.T) {
	a, b := &fakeConn{}, &fakeConn{}
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	if err := cp.Register("a", a); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("b", b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < failAfter; i++ {
		cp.NoteFailure("b")
	}
	if cp.States()["b"] != StateEjected {
		t.Fatal("setup: b not ejected")
	}
	gens, err := p.RollingReload([]byte("ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gens) != "map[a:1 b:1]" {
		t.Fatalf("generations %v, want map[a:1 b:1]", gens)
	}
	for _, bs := range cp.Status().Backends {
		if bs.Generation != 1 {
			t.Fatalf("status %+v, want generation 1", bs)
		}
	}

	b.set(func(f *fakeConn) { f.reloadErr = errors.New("connection refused") })
	gens, err = p.RollingReload([]byte("ckpt"))
	if err == nil || !strings.Contains(err.Error(), "reloading b") {
		t.Fatalf("roll over a dead ejected backend: err = %v, want one naming b", err)
	}
	if fmt.Sprint(gens) != "map[a:2]" {
		t.Fatalf("generations %v, want map[a:2]", gens)
	}
}

// repeat is an endless reader of one byte.
type repeat byte

func (b repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// The proxy refuses a /predict body over its fixed cap with 413 instead of
// buffering whatever a client sends.
func TestProxyPredictOversizedBodyIs413(t *testing.T) {
	p := NewProxy(Config{})
	body := io.LimitReader(repeat(' '), maxPredictBody+1)
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/predict", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /predict status %d, want 413", rec.Code)
	}
}

// The proxy's server cancels a request once serve.ReadTimeout passes, so that
// limit must exceed the bound on one backend round trip: a slow backend then
// fails over on its own timeout instead of taking the client's request down.
func TestProxyReadTimeoutExceedsBackendBound(t *testing.T) {
	if serve.ReadTimeout <= httpConnTimeout {
		t.Errorf("serve.ReadTimeout %v <= httpConnTimeout %v", serve.ReadTimeout, httpConnTimeout)
	}
}
