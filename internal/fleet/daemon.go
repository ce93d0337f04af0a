package fleet

import (
	"context"
	"fmt"
	"net"
	"time"

	"bnff/internal/serve"
)

// Daemon serves the proxy's Handler on the bound listener ln through
// serve.RunUntilSignal and runs the control plane's probe loop every
// probeInterval until a termination signal or ctx's cancellation; the probe
// loop stops before the HTTP shutdown. The probe goroutine lives here rather
// than in cmd/bnff-proxy because fleet is the sanctioned concurrency domain;
// the cmd stays a flag-parsing shell. It returns nil on a clean signal-driven
// exit, and an error before it starts anything (closing ln) when
// probeInterval is not positive.
func Daemon(ctx context.Context, ln net.Listener, p *Proxy, probeInterval time.Duration) error {
	if probeInterval <= 0 {
		ln.Close()
		return fmt.Errorf("fleet: probe interval %v must be positive", probeInterval)
	}
	probeCtx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	go p.ControlPlane().ProbeLoop(probeCtx, probeInterval)
	return serve.RunUntilSignal(ctx, ln, p.Handler(), stopProbes)
}
