package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strconv"

	"bnff/internal/obs"
	"bnff/internal/serve"
)

// Proxy is the fleet's request path: it orders the routable backends with
// the control plane's policy, tries them in turn, and classifies each
// failure — overload fails over and only surfaces as 429 when every backend
// sheds, unavailability fails over and counts toward ejection, malformed
// input is terminal.
type Proxy struct {
	cp *ControlPlane

	mRequests  *obs.Counter
	mFailovers *obs.Counter
	mShed      *obs.Counter
	mErrors    *obs.Counter
	mReloads   *obs.Counter
}

// NewProxy builds a proxy over a fresh control plane.
func NewProxy(cfg Config) *Proxy {
	cp := NewControlPlane(cfg)
	return &Proxy{
		cp:         cp,
		mRequests:  cp.metrics.Counter("bnff_fleet_requests_total"),
		mFailovers: cp.metrics.Counter("bnff_fleet_failovers_total"),
		mShed:      cp.metrics.Counter("bnff_fleet_shed_total"),
		mErrors:    cp.metrics.Counter("bnff_fleet_errors_total"),
		mReloads:   cp.metrics.Counter("bnff_fleet_reloads_total"),
	}
}

// ControlPlane exposes the proxy's control plane for registration, probing,
// and status.
func (p *Proxy) ControlPlane() *ControlPlane { return p.cp }

// Predict routes one image: the policy orders the routable backends for the
// key and the proxy walks the order until a backend answers. Overloaded
// backends are skipped (serve.ErrOverloaded surfaces only when every
// routable backend shed); unavailable backends are skipped with the failure
// noted toward ejection; a bad-image error returns immediately — no backend
// can answer it. With nothing routable it returns ErrNoBackends.
func (p *Proxy) Predict(key string, img []float32) ([]float32, error) {
	p.mRequests.Inc()
	views := p.cp.routable()
	if len(views) == 0 {
		p.mErrors.Inc()
		return nil, ErrNoBackends
	}
	order := p.cp.cfg.Policy.Order(key, views)
	sawOverload := false
	for i, name := range order {
		conn, ok := p.cp.get(name)
		if !ok { // deregistered between snapshot and dispatch
			continue
		}
		logits, err := conn.Predict(img)
		switch {
		case err == nil:
			if i > 0 {
				p.mFailovers.Inc()
			}
			return logits, nil
		case errors.Is(err, serve.ErrOverloaded):
			sawOverload = true
			continue
		case errors.Is(err, serve.ErrBadImage):
			return nil, err
		default:
			// Closed, draining, connection refused, 5xx: unavailable.
			p.cp.NoteFailure(name)
			continue
		}
	}
	if sawOverload {
		p.mShed.Inc()
		return nil, serve.ErrOverloaded
	}
	p.mErrors.Inc()
	return nil, ErrNoBackends
}

// RollingReload rolls a checkpoint through every registered backend one at
// a time, in sorted-name order — ejected ones too, so a backend readmitted
// later serves the same generation as the rest. Each backend's Reload is
// hitless — it validates the image beside the generation it serves and flips
// atomically, each batch running on one generation — so every backend stays
// in rotation throughout. A backend that fails the reload, by rejecting the
// checkpoint or by not answering, stops the roll with an error naming it and
// keeps its old generation: earlier backends keep the new generation, later
// ones the old, and the caller decides whether to retry, deregister the
// backend, or roll back.
func (p *Proxy) RollingReload(ckpt []byte) (map[string]uint64, error) {
	names := p.cp.names()
	if len(names) == 0 {
		return nil, ErrNoBackends
	}
	gens := make(map[string]uint64, len(names))
	for _, name := range names {
		conn, ok := p.cp.get(name)
		if !ok { // deregistered mid-roll
			continue
		}
		gen, err := conn.Reload(bytes.NewReader(ckpt))
		if err != nil {
			return gens, fmt.Errorf("fleet: reloading %s: %w", name, err)
		}
		gens[name] = gen
		p.cp.setGeneration(name, gen)
		p.mReloads.Inc()
	}
	return gens, nil
}

// Handler returns the proxy's HTTP surface:
//
//	POST /predict           route one image across the fleet (serve's body)
//	GET  /healthz           proxy liveness
//	GET  /readyz            200 while at least one backend is routable
//	GET  /metrics           the fleet registry in Prometheus text format
//	GET  /fleet/status      membership, states, generations as JSON
//	POST /fleet/register    ?name=N&url=U — add an HTTP backend
//	POST /fleet/deregister  ?name=N
//	POST /fleet/reload      rolling hot-swap; body is the checkpoint image
//
// Predict routing honors an X-Route-Key header as the policy key; without
// one the key is an FNV-1a digest of the image bytes, so identical images
// keep backend affinity.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", p.handlePredict)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /readyz", p.handleReadyz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /fleet/status", p.handleStatus)
	mux.HandleFunc("POST /fleet/register", p.handleRegister)
	mux.HandleFunc("POST /fleet/deregister", p.handleDeregister)
	mux.HandleFunc("POST /fleet/reload", p.handleReload)
	return mux
}

// maxPredictBody caps a /predict body at the proxy, which does not know the
// backends' image size: room for a million-element image, far above any
// registry model (a 3x224x224 input is 150,528 floats). The backend applies
// its own exact bound.
const maxPredictBody = 32 << 20

func (p *Proxy) handlePredict(w http.ResponseWriter, r *http.Request) {
	var in serve.PredictRequest
	if !serve.DecodePredict(w, r, maxPredictBody, &in) {
		return
	}
	key := r.Header.Get("X-Route-Key")
	if key == "" {
		key = imageKey(in.Image)
	}
	logits, err := p.Predict(key, in.Image)
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, serve.ErrBadImage):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, ErrNoBackends):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	resp := serve.PredictResponse{Logits: logits}
	for i, v := range logits {
		if v > logits[resp.Class] {
			resp.Class = i
		}
	}
	writeJSON(w, resp)
}

// imageKey derives a routing key from the image bytes: FNV-1a over the
// float bits, hex-encoded.
func imageKey(img []float32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range img {
		bits := math.Float32bits(v)
		b[0] = byte(bits)
		b[1] = byte(bits >> 8)
		b[2] = byte(bits >> 16)
		b[3] = byte(bits >> 24)
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (p *Proxy) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if len(p.cp.routable()) == 0 {
		http.Error(w, ErrNoBackends.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = p.cp.metrics.WriteText(w)
}

func (p *Proxy) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, p.cp.Status())
}

func (p *Proxy) handleRegister(w http.ResponseWriter, r *http.Request) {
	name, url := r.FormValue("name"), r.FormValue("url")
	if name == "" || url == "" {
		http.Error(w, "need name= and url=", http.StatusBadRequest)
		return
	}
	if err := p.cp.Register(name, NewHTTPConn(url)); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "registered")
}

func (p *Proxy) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := p.cp.Deregister(r.FormValue("name")); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "deregistered")
}

func (p *Proxy) handleReload(w http.ResponseWriter, r *http.Request) {
	ckpt, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	gens, err := p.RollingReload(ckpt)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, ErrNoBackends) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, gens)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
