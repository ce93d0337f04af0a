package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"bnff/internal/fleet"
	"bnff/internal/serve"
)

// engineStats sums the serving counters over every engine of the workload.
func (b *bench) engineStats() (requests, batches, rejected uint64) {
	for _, eng := range b.engines {
		st := eng.Stats()
		requests += st.Requests
		batches += st.Batches
		rejected += st.Rejected
	}
	return
}

// serveLayers times the serving path piece by piece: one unloaded caller, the
// closed and open loops (for batch size, shedding and the tail percentiles the
// end-to-end metrics deliberately leave out), the HTTP handler's own cost, and
// a checkpoint reload.
func (x *tracedBench) serveLayers(parent span) error {
	x.add("serve.load_ms", float64(x.loadNs)/1e6, "ms")
	i := 0
	oneCaller, err := x.repeated(parent, "serve.predict.b1", "serve", 2*x.unitNs, func() error {
		i++
		return x.request(i % requestImages)
	})
	if err != nil {
		return err
	}
	x.add("serve.predict_ms.b1", oneCaller, "ms")

	req0, bat0, _ := x.engineStats()
	s := x.begin(parent)
	var closed closedResult
	x.closedLoop(&closed, x.unitNs, 6*x.unitNs)
	x.end(s, "serve.closed_loop", "serve", -1)
	req1, bat1, rej1 := x.engineStats()
	x.add("serve.mean_batch", float64(req1-req0)/float64(bat1-bat0), "count")

	s = x.begin(parent)
	x.requestDone = func(slot int, due int64) { // one span per request, from when it was due
		x.tr.EndArgs("serve.request", "serve", "", len(modules)+1+slot%openSenders, due,
			map[string]float64{"slot": float64(slot), "parent": s.id})
	}
	var open openResult
	for w := 0; w < 2; w++ {
		x.openWindow(&open, w, x.cfg.OpenRatePerS, 5*x.unitNs, x.cfg.OpenLimitMs)
	}
	x.requestDone = nil
	sort.Float64s(open.latMs)
	sort.Float64s(open.lateMs)
	x.end(s, "serve.open_loop", "serve", -1)
	_, _, rej2 := x.engineStats()
	x.add("serve.shed_share", float64(rej2-rej1)/float64(open.due), "share")
	x.add("serve.open_p95_ms", percentile(open.latMs, 95), "ms")
	x.add("serve.open_p99_ms", percentile(open.latMs, 99), "ms")
	x.add("serve.open_late_p99_ms", percentile(open.lateMs, 99), "ms")
	x.add("serve.open_backlog_end", float64(open.backlogEnd), "count")

	// The handler's own cost: ServeHTTP on a recorder (decode, Predict,
	// encode; no socket) minus Predict alone, one caller each.
	eng := x.engines[0]
	body, err := json.Marshal(serve.PredictRequest{Image: x.images[0]})
	if err != nil {
		return err
	}
	handler := eng.Handler()
	viaHandler, direct, err := x.repeatedPair(parent, "serve.handler", "serve.engine_predict", "serve", 2*x.unitNs,
		func() error {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d", rec.Code)
			}
			return nil
		}, x.enginePredict(eng))
	if err != nil {
		return err
	}
	x.add("serve.handler_overhead_us", (viaHandler-direct)*1e3, "us")

	reloadNs, err := x.timed(parent, "serve.reload", "serve", func() error { return eng.Reload(bytes.NewReader(x.ckpt)) })
	if err != nil {
		return err
	}
	x.add("serve.reload_ms", float64(reloadNs)/1e6, "ms")
	return x.warmServing() // the reload dropped the replica's executors; rebuild them before the next phase
}

// enginePredict is one Engine.Predict call, the baseline the handler, proxy
// and HTTP-hop overheads are measured against.
func (x *tracedBench) enginePredict(eng *serve.Engine) func() error {
	return func() error {
		_, err := eng.Predict(x.images[0])
		return err
	}
}

// fleetNames are the fleet.* metrics; a workload that serves in process
// reports each as 0, because every run prints every per-layer metric.
var fleetNames = []struct{ name, unit string }{
	{"fleet.route_overhead_us", "us"},
	{"fleet.policy_order_ns", "ns"},
	{"fleet.http_hop_us", "us"},
	{"fleet.failovers", "count"},
	{"fleet.shed", "count"},
	{"fleet.errors", "count"},
	{"fleet.rolling_reload_ms", "ms"},
}

// fleetLayers takes the proxy path apart: routing through an in-process conn,
// the policy alone, one HTTP hop to a backend, the proxy's failure counters
// after all the traffic above, and a rolling reload.
func (x *tracedBench) fleetLayers(parent span) error {
	if x.proxy == nil {
		for _, m := range fleetNames {
			x.add(m.name, 0, m.unit)
		}
		return nil
	}
	eng, err := x.loadEngine()
	if err != nil {
		return err
	}
	policy := x.proxy.ControlPlane().Policy()
	local := fleet.NewProxy(fleet.Config{Policy: policy, Clock: x.clock})
	if err := local.ControlPlane().Register("e0", fleet.NewEngineConn(eng)); err != nil {
		return err
	}
	routed, direct, err := x.repeatedPair(parent, "fleet.proxy_predict", "serve.engine_predict", "fleet", 2*x.unitNs,
		func() error {
			_, err := local.Predict("img-0", x.images[0])
			return err
		}, x.enginePredict(eng))
	if err != nil {
		return err
	}
	x.add("fleet.route_overhead_us", (routed-direct)*1e3, "us")

	views := []fleet.BackendView{{Name: "b0"}, {Name: "b1"}}
	const orders = 20000
	orderNs, err := x.timed(parent, "fleet.policy_order", "fleet", func() error {
		for i := 0; i < orders; i++ {
			policy.Order("img-0", views)
		}
		return nil
	})
	if err != nil {
		return err
	}
	x.add("fleet.policy_order_ns", float64(orderNs)/orders, "ns")

	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	conn := fleet.NewHTTPConn(srv.URL)
	defer conn.Close()
	hop, direct, err := x.repeatedPair(parent, "fleet.http_predict", "serve.engine_predict", "fleet", 2*x.unitNs,
		func() error {
			_, err := conn.Predict(x.images[0])
			return err
		}, x.enginePredict(eng))
	if err != nil {
		return err
	}
	x.add("fleet.http_hop_us", (hop-direct)*1e3, "us")

	counters := x.proxy.ControlPlane().Metrics()
	x.add("fleet.failovers", float64(counters.Counter("bnff_fleet_failovers_total").Value()), "count")
	x.add("fleet.shed", float64(counters.Counter("bnff_fleet_shed_total").Value()), "count")
	x.add("fleet.errors", float64(counters.Counter("bnff_fleet_errors_total").Value()), "count")

	rollNs, err := x.timed(parent, "fleet.rolling_reload", "fleet", func() error {
		_, err := x.proxy.RollingReload(x.ckpt)
		return err
	})
	if err != nil {
		return err
	}
	x.add("fleet.rolling_reload_ms", float64(rollNs)/1e6, "ms")
	return nil
}
