package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/memplan"
	"bnff/internal/models"
	"bnff/internal/tensor"
)

func tinyCNN(batch int) (*graph.Graph, error) { return models.Build("tiny-cnn", batch) }

// testCheckpoint builds a tiny-cnn checkpoint with meaningful running
// statistics (a few tracked forward passes over random data).
func testCheckpoint(t testing.TB) []byte {
	t.Helper()
	g, err := tinyCNN(4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExecutor(g, core.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(12)
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

// The acceptance test of the batching contract: 64 concurrent single-image
// requests pushed through a MaxBatch-8, two-replica folded server must each
// come back bit-identical to a serial batch-1 pass over the same checkpoint.
func TestServeBatchedBitIdentity(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{
		MaxBatch: 8, Replicas: 2, QueueDepth: 128, FoldBN: true, MaxWait: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 64
	images := make([][]float32, n)
	rng := tensor.NewRNG(21)
	for i := range images {
		x := tensor.New(eng.ImageLen())
		rng.FillNormal(x, 0, 1)
		images[i] = x.Data
	}

	// Serial batch-1 reference over the identical folded compilation.
	g1, err := tinyCNN(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewExecutor(g1, core.WithFoldedBN())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Load(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, n)
	for i, img := range images {
		x, err := tensor.FromSlice(img, append(tensor.Shape{1}, eng.imgShape...)...)
		if err != nil {
			t.Fatal(err)
		}
		y, err := ref.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float32(nil), y.Data...)
	}

	got := make([][]float32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = eng.Predict(images[i])
		}(i)
	}
	wg.Wait()

	for i := range got {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !equalF32(got[i], want[i]) {
			t.Errorf("request %d: batched logits differ bitwise from the serial reference", i)
		}
	}

	st := eng.Stats()
	if st.Requests != n {
		t.Errorf("stats count %d requests, served %d", st.Requests, n)
	}
	var byHist uint64
	for i, c := range st.BatchHist {
		byHist += c * uint64(i+1)
	}
	if byHist != n {
		t.Errorf("batch histogram accounts for %d requests, served %d", byHist, n)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Errorf("implausible batch count %d", st.Batches)
	}
}

// A full queue sheds deterministically: against a quiescent (never-started)
// engine the QueueDepth+1-th submission must return ErrOverloaded. Shedding
// loses nothing already accepted: once the replica runs, every queued request
// is answered and new ones are admitted again.
func TestServeOverloadShedding(t *testing.T) {
	ckpt := testCheckpoint(t)
	e, err := newEngine(tinyCNN, bytes.NewReader(ckpt), Config{MaxBatch: 2, Replicas: 1, QueueDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	queued := make([]*request, 3)
	for i := range queued {
		queued[i] = &request{img: make([]float32, e.imgLen), resp: make(chan result, 1)}
		e.queue <- queued[i]
	}
	if _, err := e.Predict(make([]float32, e.imgLen)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full Predict returned %v, want ErrOverloaded", err)
	}
	st := e.Stats()
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if st.QueueDepth != 3 {
		t.Errorf("QueueDepth = %d, want 3", st.QueueDepth)
	}

	e.start()
	defer e.Close()
	for i, req := range queued {
		if res := <-req.resp; res.err != nil || len(res.logits) != e.classes {
			t.Errorf("queued request %d: %d logits, err %v", i, len(res.logits), res.err)
		}
	}
	if _, err := e.Predict(make([]float32, e.imgLen)); err != nil {
		t.Errorf("Predict after the queue drained: %v", err)
	}
}

func TestServeBadImage(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Predict(make([]float32, 7)); !errors.Is(err, ErrBadImage) {
		t.Errorf("wrong-sized image returned %v, want ErrBadImage", err)
	}
}

func TestServeClose(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Predict(make([]float32, eng.ImageLen())); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Predict(make([]float32, eng.ImageLen())); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Predict returned %v, want ErrClosed", err)
	}
	if !eng.Closed() {
		t.Error("Closed() false after Close")
	}
}

func TestServeHTTP(t *testing.T) {
	ckpt := testCheckpoint(t)
	var tick atomic.Int64
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{
		Clock: func() int64 { return tick.Add(1000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	defer eng.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}

	img := make([]float32, eng.ImageLen())
	body, _ := json.Marshal(PredictRequest{Image: img})
	resp, err = http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/predict status %d", resp.StatusCode)
	}
	if len(pr.Logits) != eng.Classes() || pr.Class < 0 || pr.Class >= eng.Classes() {
		t.Errorf("/predict returned %d logits, class %d", len(pr.Logits), pr.Class)
	}

	resp, err = http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"image":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong-sized image: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 {
		t.Errorf("/stats requests %d, want 1", st.Requests)
	}
	if st.P50Nanos <= 0 {
		t.Errorf("p50 %d with an injected clock, want > 0", st.P50Nanos)
	}

	eng.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed /healthz status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed /predict status %d, want 503", resp.StatusCode)
	}
}

// Queue overflow surfaces as HTTP 429 through the handler.
func TestServeHTTPOverload(t *testing.T) {
	ckpt := testCheckpoint(t)
	e, err := newEngine(tinyCNN, bytes.NewReader(ckpt), Config{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.queue <- &request{img: make([]float32, e.imgLen), resp: make(chan result, 1)}
	body, _ := json.Marshal(PredictRequest{Image: make([]float32, e.imgLen)})
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("overloaded /predict status %d, want 429", rec.Code)
	}
}

func TestServeConfigValidate(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := newEngine(tinyCNN, bytes.NewReader(ckpt), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.cfg.MaxWait != 2*time.Millisecond {
		t.Errorf("MaxWait 0 became %v, want the 2ms default", eng.cfg.MaxWait)
	}
	if _, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{MaxWait: -time.Second}); err == nil {
		t.Error("negative MaxWait accepted")
	}
	if _, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{Replicas: -1}); err == nil {
		t.Error("negative Replicas accepted")
	}
}

// The /stats latency quantiles are pure functions of the recorded durations:
// same observations, same p50/p99, independent of arrival order. Stats reads
// them from the engine's one latency histogram, the series /metrics exports.
func TestStatsQuantileDeterminism(t *testing.T) {
	ckpt := testCheckpoint(t)
	mk := func(lats []int64) (int64, int64) {
		eng, err := newEngine(tinyCNN, bytes.NewReader(ckpt), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lats {
			eng.mLatency.Observe(l)
		}
		st := eng.Stats()
		return st.P50Nanos, st.P99Nanos
	}
	lats := make([]int64, 100)
	for i := range lats {
		lats[i] = 100 // bucket 7: [64,128)
	}
	lats[99] = 1 << 20 // bucket 21
	p50a, p99a := mk(lats)
	// Reverse order: identical histogram, identical quantiles.
	rev := make([]int64, len(lats))
	for i := range lats {
		rev[i] = lats[len(lats)-1-i]
	}
	p50b, p99b := mk(rev)
	if p50a != p50b || p99a != p99b {
		t.Fatalf("quantiles depend on arrival order: (%d,%d) vs (%d,%d)", p50a, p99a, p50b, p99b)
	}
	if p50a != 127 {
		t.Errorf("p50 = %d, want 127 (upper bound of the [64,128) bucket)", p50a)
	}
	if p99a != 127 {
		t.Errorf("p99 = %d, want 127 (rank 99 of 100 still in the small bucket)", p99a)
	}
	lats[98] = 1 << 20 // two large observations push rank 99 into bucket 21
	_, p99c := mk(lats)
	if p99c != 1<<21-1 {
		t.Errorf("p99 = %d, want %d", p99c, 1<<21-1)
	}
}

func benchServe(b *testing.B, maxBatch int) {
	ckpt := testCheckpoint(b)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{
		MaxBatch: maxBatch, Replicas: 2, QueueDepth: 1024, FoldBN: true, MaxWait: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	img := make([]float32, eng.ImageLen())
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Predict(img); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Batched vs per-image serving throughput: the micro-batcher's win is that
// every fixed per-dispatch cost is amortized over up to MaxBatch requests.
func BenchmarkServePerImage(b *testing.B) { benchServe(b, 1) }
func BenchmarkServeBatched(b *testing.B)  { benchServe(b, 8) }

// A replica's executor releases each value at its last forward reader and
// holds only what its forward-only plan keeps live: after a batch of 1 and
// one of 2, its arena holds at most 1.25× the larger of memplan's planned
// peak at batch 2 and its own checked-out peak (on tiny-cnn the latter adds
// conv3's packed weights and scratch, 0.8× the plan's two maps), and that
// peak lies below the sum of every forward value, which a pass releasing
// nothing would hold. Every answer bit-matches its batch-1 reference.
func TestReplicaExecutorRecyclesActivations(t *testing.T) {
	ckpt := testCheckpoint(t)
	// A quiescent engine (no replica loops), so the test picks the batch
	// sizes itself.
	e, err := newEngine(tinyCNN, bytes.NewReader(ckpt), Config{MaxBatch: 2, Replicas: 1, FoldBN: true})
	if err != nil {
		t.Fatal(err)
	}
	r := e.replicas[0]
	rng := tensor.NewRNG(31)
	for _, k := range []int{1, 2, 1, 2} {
		batch := make([]*request, k)
		for i := range batch {
			x := tensor.New(e.ImageLen())
			rng.FillNormal(x, 0, 1)
			batch[i] = &request{img: x.Data, resp: make(chan result, 1)}
		}
		r.run(batch)
		for i, req := range batch {
			res := <-req.resp
			if res.err != nil {
				t.Fatal(res.err)
			}
			if !equalF32(res.logits, refLogits(t, ckpt, req.img)) {
				t.Errorf("batch %d row %d: logits differ from the batch-1 reference", k, i)
			}
		}
	}
	plan, err := memplan.PlanInference(r.exec.G) // the graph is built at MaxBatch
	if err != nil {
		t.Fatal(err)
	}
	_, ivs, err := memplan.InferenceIntervals(r.exec.G)
	if err != nil {
		t.Fatal(err)
	}
	var values int64 // every forward value's bytes: what a pass that released nothing holds
	for _, iv := range ivs {
		values += iv.Bytes
	}
	s := r.exec.ArenaStats()
	t.Logf("held %d B, peak %d B, forward-only plan %d B, forward values %d B",
		s.HeldBytes, s.PeakBytes, plan.PeakBytes, values)
	if s.Hits == 0 {
		t.Errorf("later batches never hit the arena free lists: %+v", s)
	}
	if limit := 1.25 * float64(max(plan.PeakBytes, s.PeakBytes)); float64(s.HeldBytes) > limit {
		t.Errorf("replica holds %d bytes, more than 1.25x the peak %d", s.HeldBytes, max(plan.PeakBytes, s.PeakBytes))
	}
	if s.PeakBytes >= values {
		t.Errorf("peak %d bytes reaches the %d bytes of every forward value: nothing was released", s.PeakBytes, values)
	}
}

// One executor per replica per model generation: Load, batches of every size
// 1..MaxBatch on every replica, and one Reload call the builder Replicas times
// per generation — the reload's validation executor serves the first replica
// to flip, never per batch size — and every answer bit-matches the batch-1
// reference of its generation.
func TestOneExecutorPerReplicaPerGeneration(t *testing.T) {
	const replicas, maxBatch = 2, 4
	ckptA, ckptB := testCheckpoint(t), altCheckpoint(t)
	var builds int
	counting := func(batch int) (*graph.Graph, error) {
		builds++
		return tinyCNN(batch)
	}
	// A quiescent engine (no replica loops), so the test picks every batch
	// size itself instead of racing the collector for it.
	e, err := newEngine(counting, bytes.NewReader(ckptA), Config{
		MaxBatch: maxBatch, Replicas: replicas, FoldBN: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(41)
	everySize := func(ckpt []byte) {
		t.Helper()
		for _, r := range e.replicas {
			for k := 1; k <= maxBatch; k++ {
				batch := make([]*request, k)
				for i := range batch {
					x := tensor.New(e.ImageLen())
					rng.FillNormal(x, 0, 1)
					batch[i] = &request{img: x.Data, resp: make(chan result, 1)}
				}
				r.run(batch)
				for i, req := range batch {
					res := <-req.resp
					if res.err != nil {
						t.Fatal(res.err)
					}
					if !equalF32(res.logits, refLogits(t, ckpt, req.img)) {
						t.Errorf("replica %d batch %d row %d: logits differ from the batch-1 reference", r.index, k, i)
					}
				}
			}
		}
	}
	everySize(ckptA)
	if builds != replicas {
		t.Errorf("generation 1: %d builder calls, want %d", builds, replicas)
	}
	if err := e.Reload(bytes.NewReader(ckptB)); err != nil {
		t.Fatal(err)
	}
	everySize(ckptB)
	if want := 2 * replicas; builds != want {
		t.Errorf("after one reload: %d builder calls, want %d", builds, want)
	}
}

// An oversized /predict body is refused with 413 before it is buffered, and
// the engine keeps answering: the next well-formed request bit-matches its
// reference.
func TestPredictOversizedBodyIs413(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{FoldBN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := eng.Handler()

	huge := `{"image":[` + strings.Repeat("0.123456789012345678901234567890,", 2*eng.ImageLen()) + `0]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(huge)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /predict status %d, want 413", rec.Code)
	}

	x := tensor.New(eng.ImageLen())
	tensor.NewRNG(51).FillNormal(x, 0, 1)
	body, _ := json.Marshal(PredictRequest{Image: x.Data})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("well-formed /predict after the oversized one: status %d", rec.Code)
	}
	var pr PredictResponse
	if err := json.NewDecoder(rec.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if !equalF32(pr.Logits, refLogits(t, ckpt, x.Data)) {
		t.Error("logits after an oversized request differ from the batch-1 reference")
	}
}

// Both daemons build their server through NewHTTPServer, so every connection
// timeout is set: headers, the whole request, and keep-alive idling.
// TestDaemonDrainsAndClosesOnCancel checks the shutdown path Daemon shares
// with fleet's: canceling its context returns nil, closes the listener, and
// leaves the engine drained and closed.
func TestDaemonDrainsAndClosesOnCancel(t *testing.T) {
	eng, err := Load(tinyCNN, bytes.NewReader(testCheckpoint(t)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- Daemon(ctx, ln, eng) }()
	url := "http://" + ln.Addr().String() + "/readyz"
	for i := 0; ; i++ {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if i == 200 {
			t.Fatalf("%s never answered 200", url)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("Daemon after cancel = %v, want nil", err)
	}
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("Daemon left its listener open")
	}
	if !eng.Stats().Draining || !eng.Closed() {
		t.Fatalf("engine draining=%v closed=%v after Daemon, want both", eng.Stats().Draining, eng.Closed())
	}
}

func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := NewHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("addr %q handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.ReadTimeout != ReadTimeout || srv.IdleTimeout != IdleTimeout {
		t.Errorf("timeouts header %v read %v idle %v, want %v %v %v", srv.ReadHeaderTimeout, srv.ReadTimeout,
			srv.IdleTimeout, ReadHeaderTimeout, ReadTimeout, IdleTimeout)
	}
	if ReadHeaderTimeout <= 0 || ReadTimeout < ReadHeaderTimeout || IdleTimeout <= 0 {
		t.Errorf("implausible timeouts: header %v read %v idle %v", ReadHeaderTimeout, ReadTimeout, IdleTimeout)
	}
}

// A client that sends its /predict headers and then stalls its body is cut
// off once ReadTimeout passes: the server closes the connection instead of
// holding it (and a goroutine) open. The server is the daemons' own struct,
// with only ReadTimeout shortened.
func TestStalledBodyIsCutOff(t *testing.T) {
	ckpt := testCheckpoint(t)
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(ln.Addr().String(), eng.Handler())
	srv.ReadTimeout = 200 * time.Millisecond
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /predict HTTP/1.1\r\nHost: x\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"image\":["); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	// Whatever the server answers, it must then close the connection.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled-body connection still open after %v: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < srv.ReadTimeout/2 {
		t.Errorf("connection closed after %v, before the %v read timeout", waited, srv.ReadTimeout)
	}
}
