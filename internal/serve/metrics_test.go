package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestServeMetricsEndpoint(t *testing.T) {
	ckpt := testCheckpoint(t)
	var tick atomic.Int64
	eng, err := Load(tinyCNN, bytes.NewReader(ckpt), Config{
		MaxBatch: 1,
		Clock:    func() int64 { return tick.Add(1000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	defer eng.Close()

	img := make([]float32, eng.ImageLen())
	for i := 0; i < 3; i++ {
		if _, err := eng.Predict(img); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE bnff_serve_requests_total counter",
		"bnff_serve_requests_total 3",
		"bnff_serve_batches_total 3",
		"bnff_serve_rejected_total 0",
		"# TYPE bnff_serve_queue_depth gauge",
		"bnff_serve_batch_occupancy 1",
		"# TYPE bnff_serve_latency_ns histogram",
		"bnff_serve_latency_ns_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestServeRejectedCounter(t *testing.T) {
	ckpt := testCheckpoint(t)
	// Quiescent engine (replicas not started): the queue fills and sheds.
	eng, err := newEngine(tinyCNN, bytes.NewReader(ckpt), Config{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := make([]float32, eng.ImageLen())
	go func() { _, _ = eng.Predict(img) }() // occupies the single queue slot
	for eng.Stats().QueueDepth == 0 {
		runtime.Gosched()
	}
	if _, err := eng.Predict(img); err != ErrOverloaded {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := eng.Metrics().Counter("bnff_serve_rejected_total").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	eng.start()
	eng.Close()
}
