// bnff-proxy fronts a fleet of bnff-serve backends: POST /predict requests
// are routed across the registered backends by rendezvous hashing on the
// request key, a backend is ejected after 3 consecutive failed readiness
// checks, re-probed on a backoff that doubles from 1 s up to 30 s, and
// readmitted after 2 consecutive successful probes, and POST /fleet/reload
// hot-swaps a new checkpoint into one backend at a time, each staying in
// rotation (the reload is hitless). A bnff-serve backend drains itself on
// SIGTERM: the proxy fails over past it and ejects it.
//
// Usage:
//
//	bnff-proxy -addr :9090 -backends http://127.0.0.1:9091,http://127.0.0.1:9092
//	bnff-proxy -addr :9090 -backends http://127.0.0.1:9091 -probe-interval 500ms
//
// Endpoints: POST /predict (bnff-serve's body, optional X-Route-Key header),
// GET /healthz, GET /readyz, GET /metrics, GET /fleet/status, and the
// POST /fleet/{register,deregister,reload} admin verbs. The daemon exits
// cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"bnff/internal/fleet"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (e.g. http://127.0.0.1:9091,http://127.0.0.1:9092); names default to b0,b1,...")
	probeInterval := flag.Duration("probe-interval", time.Second, "readiness probe sweep interval")
	flag.Parse()

	if err := run(*addr, *backends, *probeInterval); err != nil {
		fmt.Fprintln(os.Stderr, "bnff-proxy:", err)
		os.Exit(1)
	}
}

func run(addr, backends string, probeInterval time.Duration) error {
	// fleet.Daemon checks this too; checking here refuses the interval
	// before the bind and the banner.
	if probeInterval <= 0 {
		return fmt.Errorf("probe interval %v must be positive", probeInterval)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	// Monotonic nanoseconds for ejection backoff; the library never reads
	// the wall clock itself (the seededrand contract).
	base := time.Now()
	proxy := fleet.NewProxy(fleet.Config{
		Clock: func() int64 { return int64(time.Since(base)) },
	})
	cp := proxy.ControlPlane()
	if backends != "" {
		for i, url := range strings.Split(backends, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			name := fmt.Sprintf("b%d", i)
			if err := cp.Register(name, fleet.NewHTTPConn(url)); err != nil {
				return err
			}
			fmt.Printf("registered %s -> %s\n", name, url)
		}
	}
	fmt.Printf("proxy listening on %s  (policy %s, %d backends, probe every %v)\n",
		ln.Addr(), cp.Policy().Name(), len(cp.Status().Backends), probeInterval)
	return fleet.Daemon(context.Background(), ln, proxy, probeInterval)
}
