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

// NewEngineConn wraps an engine. The conn takes ownership for Close.
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

// Healthz implements Conn.
func (c *EngineConn) Healthz() error {
	if c.e.Closed() {
		return fmt.Errorf("%w: closed", ErrUnavailable)
	}
	return nil
}

// Readyz implements Conn.
func (c *EngineConn) Readyz() error {
	if ok, reason := c.e.Ready(); !ok {
		return fmt.Errorf("%w: %s", ErrUnavailable, reason)
	}
	return nil
}

// QueueDepth implements Conn.
func (c *EngineConn) QueueDepth() (int, error) {
	if c.e.Closed() {
		return 0, fmt.Errorf("%w: closed", ErrUnavailable)
	}
	return c.e.QueueDepth(), nil
}

// Reload implements Conn.
func (c *EngineConn) Reload(ckpt io.Reader) (uint64, error) {
	if err := c.e.Reload(ckpt); err != nil {
		return 0, err
	}
	return c.e.Generation(), nil
}

// Drain implements Conn.
func (c *EngineConn) Drain() error {
	c.e.Drain()
	return nil
}

// Undrain implements Conn.
func (c *EngineConn) Undrain() error {
	c.e.Undrain()
	return nil
}

// Close implements Conn: it shuts the engine down.
func (c *EngineConn) Close() error {
	c.e.Close()
	return nil
}
