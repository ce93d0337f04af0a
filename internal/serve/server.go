package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// PredictRequest is the POST /predict body: one image as a flat float array
// in the model's input layout (channels × height × width, row-major).
type PredictRequest struct {
	Image []float32 `json:"image"`
}

// PredictResponse is the POST /predict reply.
type PredictResponse struct {
	Logits []float32 `json:"logits"`
	Class  int       `json:"class"` // argmax of Logits (lowest index wins ties)
}

// Handler returns the engine's HTTP ops surface:
//
//	POST /predict  one image in, logits + argmax class out
//	GET  /healthz  liveness: 200 until Close, 503 after
//	GET  /readyz   readiness: 200 while routable, 503 draining/closed
//	GET  /stats    Stats snapshot as JSON
//	GET  /metrics  the engine's registry in Prometheus text format
//	POST /reload   hot-swap the checkpoint (raw image as request body)
//
// Load shedding maps to status codes: a full queue answers 429, a closed or
// draining engine 503, a malformed or wrong-sized image 400, a concurrent
// reload 409, a /predict body larger than any well-formed image 413. Liveness
// and readiness split so a fleet proxy can stop routing to a backend (readyz
// 503) without its supervisor killing the process (healthz still 200).
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", e.handlePredict)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /readyz", e.handleReadyz)
	mux.HandleFunc("GET /stats", e.handleStats)
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	mux.HandleFunc("POST /reload", e.handleReload)
	return mux
}

// maxBytesPerFloat bounds the JSON text of one image element (a float64
// round-trip literal is 25 bytes with its comma); bodySlack covers the
// envelope and whitespace.
const (
	maxBytesPerFloat = 32
	bodySlack        = 1024
)

// DecodePredict reads a POST /predict body of at most limit bytes into in,
// answering 413 for a longer body and 400 for a malformed one. It reports
// whether the handler should go on.
func DecodePredict(w http.ResponseWriter, r *http.Request, limit int64, in *PredictRequest) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(in)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("request body over %d bytes", limit), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
	}
	return err == nil
}

func (e *Engine) handlePredict(w http.ResponseWriter, r *http.Request) {
	var in PredictRequest
	if !DecodePredict(w, r, int64(e.imgLen)*maxBytesPerFloat+bodySlack, &in) {
		return
	}
	logits, err := e.Predict(in.Image)
	switch {
	case errors.Is(err, ErrOverloaded):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrBadImage):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := PredictResponse{Logits: logits}
	for i, v := range logits {
		if v > logits[resp.Class] {
			resp.Class = i
		}
	}
	writeJSON(w, resp)
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if e.Closed() {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (e *Engine) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if ok, reason := e.Ready(); !ok {
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// ReloadResponse is the POST /reload reply.
type ReloadResponse struct {
	Generation uint64 `json:"generation"`
}

func (e *Engine) handleReload(w http.ResponseWriter, r *http.Request) {
	err := e.Reload(r.Body)
	switch {
	case errors.Is(err, ErrReloadBusy):
		http.Error(w, err.Error(), http.StatusConflict)
		return
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		// The probe rejected the image: a client-side checkpoint problem, and
		// the old generation is still serving.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, ReloadResponse{Generation: e.Generation()})
}

func (e *Engine) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, e.Stats())
}

func (e *Engine) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Queue depth is instantaneous; sample it at scrape time.
	e.mQueueDepth.Set(int64(len(e.queue)))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = e.metrics.WriteText(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to report to the client.
		return
	}
}

// shutdownGrace bounds how long RunUntilSignal waits for in-flight HTTP
// requests after a termination signal.
const shutdownGrace = 10 * time.Second

// Connection timeouts of both daemons' HTTP servers, so no client can pin a
// goroutine and a socket open forever. ReadHeaderTimeout bounds the request
// headers; ReadTimeout the whole request, body included, so a client that
// sends headers and then trickles its body is cut off; IdleTimeout a
// keep-alive connection waiting for its next request (without it the server
// falls back to ReadTimeout). ReadTimeout's deadline stays armed while the
// handler runs (net/http cancels the request's context when it passes), so it
// exceeds the proxy's per-backend round-trip bound (fleet's httpConnTimeout,
// 30 s): a slow backend is cut off by that bound, with its own error, before
// the proxy's request is.
const (
	ReadHeaderTimeout = 10 * time.Second
	ReadTimeout       = 60 * time.Second
	IdleTimeout       = 120 * time.Second
)

// NewHTTPServer returns the http.Server a daemon listens with: h on addr,
// under the connection timeouts above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// RunUntilSignal serves h on the bound listener ln until ctx is canceled or
// the process receives SIGINT/SIGTERM, then shuts down gracefully: it calls
// beforeShutdown when that is non-nil, closes the listener, and gives
// in-flight requests shutdownGrace to finish. It returns nil on a clean
// signal-driven exit and the server's error if serving stops by itself. Both
// daemons (Daemon here, fleet's proxy) run this one loop; signal handling
// lives here rather than in cmd/ because the serving runtime is the module's
// allowlisted concurrency domain.
func RunUntilSignal(ctx context.Context, ln net.Listener, h http.Handler, beforeShutdown func()) error {
	ctx, unhook := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer unhook()

	srv := NewHTTPServer(ln.Addr().String(), h)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if beforeShutdown != nil {
		beforeShutdown()
	}
	sdCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(sdCtx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// Daemon serves the engine's Handler on the bound listener ln through
// RunUntilSignal and closes the engine when that returns. The caller binds
// ln, so a port in use fails before the daemon announces itself. Before the
// HTTP shutdown the engine drains: a fleet proxy probing /readyz sees 503 and
// stops routing here, stragglers get ErrDraining (retried elsewhere), and the
// requests already accepted finish inside the grace window before Close.
func Daemon(ctx context.Context, ln net.Listener, e *Engine) error {
	err := RunUntilSignal(ctx, ln, e.Handler(), e.Drain)
	e.Close()
	return err
}
