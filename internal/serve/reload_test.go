package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bnff/internal/core"
	"bnff/internal/tensor"
)

// altCheckpoint builds a second tiny-cnn checkpoint with different
// parameters (different seed), so a hot-swap visibly changes the logits.
func altCheckpoint(t testing.TB) []byte {
	t.Helper()
	g, err := tinyCNN(4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExecutor(g, core.WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(78)
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

// refLogits runs one image through a fresh batch-1 folded inference executor
// loaded from ckpt — the single-process folded reference a served answer
// must bit-match.
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

func TestReloadSwapsGenerationAndLogits(t *testing.T) {
	ckptA, ckptB := testCheckpoint(t), altCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckptA), Config{MaxBatch: 2, FoldBN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.Generation(); got != 1 {
		t.Fatalf("fresh engine generation = %d, want 1", got)
	}

	img := make([]float32, eng.ImageLen())
	for i := range img {
		img[i] = float32(i%7) * 0.25
	}
	refA := refLogits(t, ckptA, img)
	refB := refLogits(t, ckptB, img)
	if equalF32(refA, refB) {
		t.Fatal("test checkpoints produce identical logits; reload would be invisible")
	}

	got, err := eng.Predict(img)
	if err != nil {
		t.Fatal(err)
	}
	if !equalF32(got, refA) {
		t.Fatal("pre-reload logits do not match the generation-1 reference")
	}

	if err := eng.Reload(bytes.NewReader(ckptB)); err != nil {
		t.Fatal(err)
	}
	if got := eng.Generation(); got != 2 {
		t.Fatalf("generation after reload = %d, want 2", got)
	}
	got, err = eng.Predict(img)
	if err != nil {
		t.Fatal(err)
	}
	if !equalF32(got, refB) {
		t.Fatal("post-reload logits do not bit-match the new checkpoint's folded reference")
	}
	if eng.Metrics().Counter("bnff_serve_reloads_total").Value() != 1 {
		t.Error("reload counter did not record the swap")
	}
	if eng.Metrics().Gauge("bnff_serve_generation").Value() != 2 {
		t.Error("generation gauge did not advance")
	}
}

func TestReloadRejectsBadCheckpointAndKeepsServing(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	img := make([]float32, eng.ImageLen())
	before, err := eng.Predict(img)
	if err != nil {
		t.Fatal(err)
	}

	if err := eng.Reload(strings.NewReader("not a checkpoint")); err == nil {
		t.Fatal("reload accepted a corrupt checkpoint")
	}
	if got := eng.Generation(); got != 1 {
		t.Fatalf("failed reload advanced the generation to %d", got)
	}
	after, err := eng.Predict(img)
	if err != nil {
		t.Fatal(err)
	}
	if !equalF32(before, after) {
		t.Fatal("failed reload disturbed the serving model")
	}
}

func TestReloadBusyAndClosed(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.reloading.Store(true)
	if err := eng.Reload(bytes.NewReader(ckpt)); err != ErrReloadBusy {
		t.Fatalf("concurrent reload: err = %v, want ErrReloadBusy", err)
	}
	eng.reloading.Store(false)
	if ok, reason := eng.Ready(); !ok {
		t.Fatalf("engine not ready after reload flag cleared: %s", reason)
	}
	eng.Close()
	if err := eng.Reload(bytes.NewReader(ckpt)); err != ErrClosed {
		t.Fatalf("reload after Close: err = %v, want ErrClosed", err)
	}
}

// TestReadyWhileReloading holds a reload mid-read and checks that the engine
// stays ready and keeps answering on the old generation: a reload is hitless,
// so a probe that lands during one must not count toward ejection.
func TestReadyWhileReloading(t *testing.T) {
	ckptA, ckptB := testCheckpoint(t), altCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckptA), Config{MaxBatch: 2, FoldBN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	img := make([]float32, eng.ImageLen())
	for i := range img {
		img[i] = float32(i%7) * 0.25
	}

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- eng.Reload(pr) }()
	// The write returns once Reload has read the first byte, so the reload is
	// in flight from here until the pipe closes.
	if _, err := pw.Write(ckptB[:1]); err != nil {
		t.Fatal(err)
	}
	if ok, reason := eng.Ready(); !ok {
		t.Fatalf("Ready during a reload = (false, %q), want true", reason)
	}
	got, err := eng.Predict(img)
	if err != nil {
		t.Fatalf("Predict during a reload: %v", err)
	}
	if !equalF32(got, refLogits(t, ckptA, img)) {
		t.Fatal("answer during a reload does not bit-match the old generation")
	}
	if _, err := pw.Write(ckptB[1:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := eng.Generation(); got != 2 {
		t.Fatalf("generation after the reload = %d, want 2", got)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	img := make([]float32, eng.ImageLen())

	eng.Drain()
	if _, err := eng.Predict(img); err != ErrDraining {
		t.Fatalf("Predict while draining: err = %v, want ErrDraining", err)
	}
	if ok, reason := eng.Ready(); ok || reason != "draining" {
		t.Fatalf("Ready while draining = (%t, %q), want (false, draining)", ok, reason)
	}
	if eng.Closed() {
		t.Fatal("draining must not read as closed (liveness vs readiness)")
	}
	if !eng.Stats().Draining {
		t.Error("stats do not report the drain")
	}
	if eng.Metrics().Gauge("bnff_serve_draining").Value() != 1 {
		t.Error("draining gauge not set")
	}
}

func TestReadyzReloadDrainEndpoints(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path string, body io.Reader) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b
	}

	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}

	code, body := post("/reload", bytes.NewReader(ckpt))
	if code != http.StatusOK {
		t.Fatalf("/reload = %d (%s), want 200", code, body)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(body, &rr); err != nil || rr.Generation != 2 {
		t.Fatalf("/reload reply %s, want generation 2 (err %v)", body, err)
	}
	if code, body := post("/reload", strings.NewReader("garbage")); code != http.StatusBadRequest {
		t.Fatalf("/reload with garbage = %d (%s), want 400", code, body)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Generation != 2 {
		t.Fatalf("stats generation = %d, want 2", st.Generation)
	}
	// The drain Daemon enters on SIGTERM: unready, still live.
	eng.Drain()
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200 (liveness)", code)
	}
}

// TestReloadUnderTraffic flips generations while concurrent clients predict:
// every answer must bit-match one of the two generations' references — never
// an error, never a blend.
func TestReloadUnderTraffic(t *testing.T) {
	ckptA, ckptB := testCheckpoint(t), altCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckptA), Config{MaxBatch: 4, Replicas: 2, FoldBN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	img := make([]float32, eng.ImageLen())
	for i := range img {
		img[i] = float32(i%5) * 0.5
	}
	refA := refLogits(t, ckptA, img)
	refB := refLogits(t, ckptB, img)

	const clients, perClient = 4, 16
	errs := make([]error, clients)
	blends := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				logits, err := eng.Predict(img)
				if err != nil {
					errs[c] = err
					return
				}
				if !equalF32(logits, refA) && !equalF32(logits, refB) {
					blends[c]++
				}
			}
		}(c)
	}
	// Two hot-swaps while the clients hammer the queue.
	if err := eng.Reload(bytes.NewReader(ckptB)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Reload(bytes.NewReader(ckptA)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Errorf("client %d: %v", c, errs[c])
		}
		if blends[c] != 0 {
			t.Errorf("client %d saw %d answers matching neither generation", c, blends[c])
		}
	}
	if got := eng.Generation(); got != 3 {
		t.Fatalf("generation after two reloads = %d, want 3", got)
	}
}
