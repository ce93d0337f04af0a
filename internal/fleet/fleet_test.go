package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/models"
	"bnff/internal/serve"
	"bnff/internal/tensor"
)

func tinyCNN(batch int) (*graph.Graph, error) { return models.Build("tiny-cnn", batch) }

// mkCheckpoint builds a tiny-cnn checkpoint from the given seeds, with a few
// tracked forward passes so the BN running statistics are meaningful.
func mkCheckpoint(t testing.TB, seed, rngSeed uint64) []byte {
	t.Helper()
	g, err := tinyCNN(4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExecutor(g, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(rngSeed)
	for i := 0; i < 4; i++ {
		x := tensor.New(g.Nodes[0].OutShape...)
		rng.FillNormal(x, 0, 1)
		if _, err := ex.Forward(x); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ex.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refLogits is the single-process folded reference: one image through a
// fresh batch-1 inference executor loaded from ckpt.
func refLogits(t testing.TB, ckpt []byte, img []float32) []float32 {
	t.Helper()
	g, err := tinyCNN(1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExecutor(g, core.WithSeed(1), core.WithInference(), core.WithFoldedBN())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Load(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(g.Nodes[0].OutShape...)
	copy(x.Data, img)
	y, err := ex.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), y.Data...)
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newEngine(t testing.TB, ckpt []byte) *serve.Engine {
	t.Helper()
	eng, err := serve.Load(tinyCNN, bytes.NewReader(ckpt), serve.Config{MaxBatch: 2, FoldBN: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func testImage(n int) []float32 {
	img := make([]float32, n)
	for i := range img {
		img[i] = float32(i%7) * 0.25
	}
	return img
}

// TestEngineFleetFailoverAndBitMatch runs a two-backend in-process fleet:
// answers bit-match the folded single-process reference, and killing one
// backend mid-service loses nothing — the proxy fails over and eventually
// ejects it.
func TestEngineFleetFailoverAndBitMatch(t *testing.T) {
	ckpt := mkCheckpoint(t, 11, 12)
	e1, e2 := newEngine(t, ckpt), newEngine(t, ckpt)
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	if err := cp.Register("b1", NewEngineConn(e1)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("b2", NewEngineConn(e2)); err != nil {
		t.Fatal(err)
	}
	img := testImage(e1.ImageLen())
	ref := refLogits(t, ckpt, img)
	// Pin the policy order so the backend we kill is the preferred one —
	// every post-crash request then exercises the failover path.
	key := keyPreferring(t, cp.Policy(), cp.routable(), "b1")

	for i := 0; i < 4; i++ {
		logits, err := p.Predict(key, img)
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		if !equalF32(logits, ref) {
			t.Fatalf("predict %d: fleet answer does not bit-match the reference", i)
		}
	}

	// Kill one backend outright: every subsequent request must still answer,
	// bit-identically, regardless of which backend the key preferred.
	e1.Close()
	for i := 0; i < 8; i++ {
		logits, err := p.Predict(key, img)
		if err != nil {
			t.Fatalf("post-crash predict %d: %v", i, err)
		}
		if !equalF32(logits, ref) {
			t.Fatalf("post-crash predict %d: answer drifted", i)
		}
	}
	if cp.States()["b1"] != StateEjected {
		t.Fatal("dead backend not ejected by predict-path evidence")
	}
}

// TestEngineFleetRollingReload reloads a two-backend fleet under continuous
// traffic: zero request errors throughout, and every answer bit-matches one
// of the two generations' references. Afterwards both backends are active in
// the control plane and serve the new generation exactly.
func TestEngineFleetRollingReload(t *testing.T) {
	ckptA := mkCheckpoint(t, 11, 12)
	ckptB := mkCheckpoint(t, 77, 78)
	e1, e2 := newEngine(t, ckptA), newEngine(t, ckptA)
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	if err := cp.Register("b1", NewEngineConn(e1)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("b2", NewEngineConn(e2)); err != nil {
		t.Fatal(err)
	}
	img := testImage(e1.ImageLen())
	refA := refLogits(t, ckptA, img)
	refB := refLogits(t, ckptB, img)
	if equalF32(refA, refB) {
		t.Fatal("checkpoints indistinguishable; reload would be invisible")
	}

	stop := make(chan struct{})
	var trafficErr error
	var blended int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			logits, err := p.Predict("rolling-key", img)
			if err != nil {
				trafficErr = err
				return
			}
			if !equalF32(logits, refA) && !equalF32(logits, refB) {
				blended++
			}
		}
	}()

	gens, err := p.RollingReload(ckptB)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if trafficErr != nil {
		t.Fatalf("traffic saw an error during the roll: %v", trafficErr)
	}
	if blended != 0 {
		t.Fatalf("%d answers matched neither generation", blended)
	}
	if gens["b1"] != 2 || gens["b2"] != 2 {
		t.Fatalf("generations after roll = %v, want 2/2", gens)
	}
	for name, eng := range map[string]*serve.Engine{"b1": e1, "b2": e2} {
		if eng.Stats().Draining {
			t.Fatalf("%s left draining after the roll", name)
		}
		if st := cp.States()[name]; st != StateActive {
			t.Fatalf("%s left %s after the roll, want %s", name, st, StateActive)
		}
	}
	logits, err := p.Predict("rolling-key", img)
	if err != nil || !equalF32(logits, refB) {
		t.Fatalf("post-roll answer (err %v) does not bit-match the new generation's reference", err)
	}
}

// TestProxyHTTPSurface drives the proxy's HTTP handler end to end over
// in-process engine backends.
func TestProxyHTTPSurface(t *testing.T) {
	ckptA := mkCheckpoint(t, 11, 12)
	ckptB := mkCheckpoint(t, 77, 78)
	e1, e2 := newEngine(t, ckptA), newEngine(t, ckptA)
	p := NewProxy(Config{})
	cp := p.ControlPlane()
	if err := cp.Register("b1", NewEngineConn(e1)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Register("b2", NewEngineConn(e2)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	img := testImage(e1.ImageLen())
	refA := refLogits(t, ckptA, img)

	body, _ := json.Marshal(serve.PredictRequest{Image: img})
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict = %d", resp.StatusCode)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !equalF32(pr.Logits, refA) {
		t.Fatal("proxied logits do not bit-match the reference")
	}

	// Status lists both backends active.
	resp, err = http.Get(srv.URL + "/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Backends) != 2 || st.Backends[0].Name != "b1" || st.Backends[0].State != "active" {
		t.Fatalf("status = %+v", st)
	}

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with two routable backends = %d, want 200", resp.StatusCode)
	}

	// Rolling reload over HTTP: JSON generation map, both at 2.
	resp, err = http.Post(srv.URL+"/fleet/reload", "application/octet-stream", bytes.NewReader(ckptB))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("/fleet/reload = %d (%s)", resp.StatusCode, b)
	}
	var gens map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&gens); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gens["b1"] != 2 || gens["b2"] != 2 {
		t.Fatalf("reload generations = %v", gens)
	}

	// Deregister and register round-trip.
	resp, err = http.Post(srv.URL+"/fleet/deregister?name=b2", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet/deregister = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/fleet/register?name=b3&url=http://127.0.0.1:1", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet/register = %d", resp.StatusCode)
	}
	st = p.ControlPlane().Status()
	if len(st.Backends) != 2 || st.Backends[1].Name != "b3" {
		t.Fatalf("membership after register/deregister = %+v", st)
	}

	// /metrics exposes the fleet series.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"bnff_fleet_requests_total", "bnff_fleet_backends", "bnff_fleet_reloads_total"} {
		if !strings.Contains(string(mb), name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}

	// With every backend deregistered the proxy is unready and refuses
	// predictions with 503.
	for _, name := range []string{"b1", "b3"} {
		if err := cp.Deregister(name); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with no backends = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/predict with no routable backends = %d, want 503", resp.StatusCode)
	}
}

// TestSelfDrainedBackendFailsOverAndIsEjected drains one of two engines the
// way bnff-serve does on SIGTERM: every prediction answers from the other
// backend without an error, and failAfter probe sweeps eject the drained
// one. Two proxies share the engines, so the routing half's failover
// evidence does not feed the probe half's count.
func TestSelfDrainedBackendFailsOverAndIsEjected(t *testing.T) {
	ckpt := mkCheckpoint(t, 11, 12)
	e1, e2 := newEngine(t, ckpt), newEngine(t, ckpt)
	routed, probed := NewProxy(Config{}), NewProxy(Config{})
	for _, p := range []*Proxy{routed, probed} {
		if err := p.ControlPlane().Register("b1", NewEngineConn(e1)); err != nil {
			t.Fatal(err)
		}
		if err := p.ControlPlane().Register("b2", NewEngineConn(e2)); err != nil {
			t.Fatal(err)
		}
	}
	img := testImage(e1.ImageLen())
	ref := refLogits(t, ckpt, img)
	cp := routed.ControlPlane()
	keys := []string{keyPreferring(t, cp.Policy(), cp.routable(), "b1"),
		keyPreferring(t, cp.Policy(), cp.routable(), "b2")}

	e1.Drain()
	const n = 8
	for i := 0; i < n; i++ {
		logits, err := routed.Predict(keys[i%2], img)
		if err != nil {
			t.Fatalf("predict %d after the drain: %v", i, err)
		}
		if !equalF32(logits, ref) {
			t.Fatalf("predict %d after the drain: answer does not bit-match the reference", i)
		}
	}
	if got := e1.Stats().Requests; got != 0 {
		t.Fatalf("drained backend answered %d requests", got)
	}
	if got := e2.Stats().Requests; got != n {
		t.Fatalf("other backend answered %d requests, want %d", got, n)
	}

	pcp := probed.ControlPlane()
	for i := 1; i <= failAfter; i++ {
		pcp.ProbeOnce()
		want := StateActive
		if i == failAfter {
			want = StateEjected
		}
		if got := pcp.States()["b1"]; got != want {
			t.Fatalf("after %d probe sweeps the drained backend is %s, want %s", i, got, want)
		}
	}
	if got := pcp.States()["b2"]; got != StateActive {
		t.Fatalf("serving backend is %s after the sweeps, want active", got)
	}
}

// TestHTTPConnAgainstRealBackend exercises HTTPConn against a live
// serve.Engine HTTP surface — the exact wiring bnff-proxy uses.
func TestHTTPConnAgainstRealBackend(t *testing.T) {
	ckptA := mkCheckpoint(t, 11, 12)
	ckptB := mkCheckpoint(t, 77, 78)
	eng := newEngine(t, ckptA)
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	conn := NewHTTPConn(srv.URL + "/")
	defer conn.Close()
	img := testImage(eng.ImageLen())

	if err := conn.Readyz(); err != nil {
		t.Fatalf("Readyz: %v", err)
	}
	logits, err := conn.Predict(img)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if !equalF32(logits, refLogits(t, ckptA, img)) {
		t.Fatal("HTTP predict does not bit-match the reference")
	}
	if _, err := conn.Predict(img[:3]); !errors.Is(err, serve.ErrBadImage) {
		t.Fatalf("short image err = %v, want serve.ErrBadImage", err)
	}

	gen, err := conn.Reload(bytes.NewReader(ckptB))
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if gen != 2 {
		t.Fatalf("Reload generation = %d, want 2", gen)
	}
	logits, err = conn.Predict(img)
	if err != nil || !equalF32(logits, refLogits(t, ckptB, img)) {
		t.Fatalf("post-reload predict (err %v) does not match the new reference", err)
	}
	if _, err := conn.Reload(strings.NewReader("garbage")); err == nil {
		t.Fatal("Reload accepted garbage")
	}

	// A backend draining itself (bnff-serve on SIGTERM) answers 503, which
	// both verbs read as ErrUnavailable.
	eng.Drain()
	if err := conn.Readyz(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Readyz while draining err = %v, want ErrUnavailable", err)
	}
	if _, err := conn.Predict(img); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Predict while draining err = %v, want ErrUnavailable", err)
	}

	// A dead endpoint resolves to ErrUnavailable on every verb.
	dead := NewHTTPConn("http://127.0.0.1:1")
	if err := dead.Readyz(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead Readyz err = %v, want ErrUnavailable", err)
	}
	if _, err := dead.Predict(img); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead Predict err = %v, want ErrUnavailable", err)
	}
}
