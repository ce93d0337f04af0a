package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bnff/internal/serve"
)

// shutdownGrace bounds how long Daemon waits for in-flight proxy requests
// after a termination signal.
const shutdownGrace = 10 * time.Second

// Daemon serves the proxy's Handler on the bound listener ln and runs the
// control plane's probe loop every probeInterval until ctx is canceled or the
// process receives SIGINT/SIGTERM, then shuts the listener down gracefully.
// Signal handling and the goroutines live here rather than in cmd/bnff-proxy
// because fleet is the sanctioned concurrency domain; the cmd stays a
// flag-parsing shell. It returns nil on a clean signal-driven exit, and an
// error before it starts anything (closing ln) when probeInterval is not
// positive.
func Daemon(ctx context.Context, ln net.Listener, p *Proxy, probeInterval time.Duration) error {
	if probeInterval <= 0 {
		ln.Close()
		return fmt.Errorf("fleet: probe interval %v must be positive", probeInterval)
	}
	ctx, unhook := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer unhook()

	go p.ControlPlane().ProbeLoop(ctx, probeInterval)

	srv := serve.NewHTTPServer(ln.Addr().String(), p.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sdCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(sdCtx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}
