package fleet

import (
	"fmt"
	"io"

	"bnff/internal/serve"
)

// EngineConn adapts an in-process *serve.Engine to the Conn interface — the
// backend flavor unit tests and the experiment runner use, so fleet drills
// run whole multi-backend topologies inside one deterministic process.
type EngineConn struct {
	e *serve.Engine
}

// NewEngineConn wraps an engine. The engine stays its creator's to close.
func NewEngineConn(e *serve.Engine) *EngineConn { return &EngineConn{e: e} }

// Predict implements Conn. Closed and draining engines surface as
// ErrUnavailable so the proxy's failover taxonomy sees the same shapes an
// HTTP backend produces.
func (c *EngineConn) Predict(img []float32) ([]float32, error) {
	logits, err := c.e.Predict(img)
	switch err {
	case nil:
		return logits, nil
	case serve.ErrClosed, serve.ErrDraining:
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return logits, err
}

// Readyz implements Conn.
func (c *EngineConn) Readyz() error {
	if ok, reason := c.e.Ready(); !ok {
		return fmt.Errorf("%w: %s", ErrUnavailable, reason)
	}
	return nil
}

// Reload implements Conn.
func (c *EngineConn) Reload(ckpt io.Reader) (uint64, error) {
	if err := c.e.Reload(ckpt); err != nil {
		return 0, err
	}
	return c.e.Generation(), nil
}
