package proxy

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/instrument"
)

// TestNewBoundsUpstreamWaits: New never falls back to the unbounded
// http.DefaultClient; its client carries the fixed header deadline and
// no total timeout (which would cut long passthrough bodies).
func TestNewBoundsUpstreamWaits(t *testing.T) {
	p, err := New("http://127.0.0.1:1", instrument.ModeLight, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if p.Client == http.DefaultClient {
		t.Fatal("New installed http.DefaultClient")
	}
	if p.Client.Timeout != 0 {
		t.Fatalf("Client.Timeout = %v, want 0 (would cut streamed bodies)", p.Client.Timeout)
	}
	tr, ok := p.Client.Transport.(*http.Transport)
	if !ok || tr.ResponseHeaderTimeout != upstreamHeaderTimeout {
		t.Fatalf("transport header timeout not %v: %+v", upstreamHeaderTimeout, p.Client.Transport)
	}
}

// TestUpstreamHeaderTimeout502: an origin that accepts the request and
// never sends headers is answered 502 within the header bound, and the
// stalled exchange leaves no goroutines behind.
func TestUpstreamHeaderTimeout502(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	p, err := New(origin.URL, instrument.ModeLight, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const header = 200 * time.Millisecond
	client := newUpstreamClient(time.Second, header)
	p.Client = client

	rec := httptest.NewRecorder()
	start := time.Now()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/app.js", nil))
	elapsed := time.Since(start)

	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "timeout") {
		t.Fatalf("502 body does not name the timeout: %q", rec.Body.String())
	}
	if elapsed < header || elapsed > header+2*time.Second {
		t.Fatalf("answered after %v, want within [%v, %v]", elapsed, header, header+2*time.Second)
	}

	close(release)
	origin.Close()
	client.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	now := runtime.NumGoroutine()
	for now > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		now = runtime.NumGoroutine()
	}
	// The same slack as the harness leak check: runtime helpers come
	// and go, a stuck exchange is persistent.
	if now > before+3 {
		t.Fatalf("goroutine leak: %d before, %d after settle", before, now)
	}
}
