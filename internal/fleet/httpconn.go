package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"bnff/internal/serve"
)

// httpConnTimeout bounds every backend round trip so a wedged backend
// resolves to ErrUnavailable instead of hanging the proxy's request path.
const httpConnTimeout = 30 * time.Second

// HTTPConn speaks the bnff-serve ops surface over the wire — the backend
// flavor bnff-proxy uses. Status codes map back onto the Conn error
// taxonomy: 429 → serve.ErrOverloaded, 400 → serve.ErrBadImage (wrapped),
// 5xx and transport failures → ErrUnavailable (wrapped).
type HTTPConn struct {
	base   string
	client *http.Client
}

// NewHTTPConn builds a conn for a backend base URL such as
// "http://127.0.0.1:9091" (a trailing slash is trimmed).
func NewHTTPConn(base string) *HTTPConn {
	return &HTTPConn{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: httpConnTimeout},
	}
}

// Predict implements Conn.
func (c *HTTPConn) Predict(img []float32) ([]float32, error) {
	body, err := json.Marshal(serve.PredictRequest{Image: img})
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Post(c.base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		var out serve.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, fmt.Errorf("%w: decoding predict reply: %v", ErrUnavailable, err)
		}
		return out.Logits, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, serve.ErrOverloaded
	case resp.StatusCode == http.StatusBadRequest:
		return nil, fmt.Errorf("%w: %s", serve.ErrBadImage, readError(resp.Body))
	default:
		return nil, fmt.Errorf("%w: predict: %s (%s)", ErrUnavailable, resp.Status, readError(resp.Body))
	}
}

// Readyz implements Conn.
func (c *HTTPConn) Readyz() error {
	resp, err := c.client.Get(c.base + "/readyz")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: /readyz: %s (%s)", ErrUnavailable, resp.Status, readError(resp.Body))
	}
	return nil
}

// Reload implements Conn.
func (c *HTTPConn) Reload(ckpt io.Reader) (uint64, error) {
	resp, err := c.client.Post(c.base+"/reload", "application/octet-stream", ckpt)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fleet: reload: %s (%s)", resp.Status, readError(resp.Body))
	}
	var out serve.ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("fleet: decoding reload reply: %w", err)
	}
	return out.Generation, nil
}

// Close releases idle keep-alive connections; the backend process is not
// ours to stop.
func (c *HTTPConn) Close() error {
	c.client.CloseIdleConnections()
	return nil
}

// drainClose empties and closes a response body so the transport reuses the
// connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}

// readError returns a trimmed single-line error body for diagnostics.
func readError(body io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(body, 512))
	return strings.TrimSpace(string(b))
}
