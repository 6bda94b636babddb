package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netembed/internal/engine"
	"netembed/internal/lifecycle"
	"netembed/internal/service"
)

// checkDisconnectStops posts a query that searches for up to a minute
// and cancels the request context 50ms in, as a client disconnect does:
// the handler must return within a few seconds.
func checkDisconnectStops(t *testing.T, path string, body any) {
	t.Helper()
	svc := service.New(service.NewModel(hardHostJobs(26)), service.Config{})
	srv := New(svc)
	t.Cleanup(func() { _ = srv.Close(context.Background()) })
	srv.AttachLifecycle(lifecycle.NewManager(svc, lifecycle.Config{}))
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(httptest.NewRecorder(), req)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("POST %s still searching 5s after the client left", path)
	}
}

func TestNegotiateStopsOnDisconnect(t *testing.T) {
	checkDisconnectStops(t, "/negotiate", NegotiateHTTPRequest{EmbedRequest: slowJobBody(t)})
}

func TestScheduleStopsOnDisconnect(t *testing.T) {
	checkDisconnectStops(t, "/schedule", ScheduleHTTPRequest{EmbedRequest: slowJobBody(t), DurationMs: 60_000})
}

func TestPlaceEmbeddingStopsOnDisconnect(t *testing.T) {
	checkDisconnectStops(t, "/embeddings", PlaceEmbeddingRequest{EmbedRequest: slowJobBody(t)})
}

// TestScheduleBudgetRunsOut: timeoutMs bounds the whole scan; when it
// ends the scan early the reply is 503 and says so, not 409 ErrNoWindow.
func TestScheduleBudgetRunsOut(t *testing.T) {
	ts, _ := newJobsServer(t, engine.Config{})
	body := slowJobBody(t)
	body.TimeoutMs = 200
	start := time.Now()
	resp, raw := postJSON(t, ts.URL+"/schedule", ScheduleHTTPRequest{
		EmbedRequest: body,
		DurationMs:   60_000,
		HorizonMs:    600_000,
		StepMs:       60_000,
	})
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte("time budget")) {
		t.Fatalf("status %d %s, want 503 naming the time budget", resp.StatusCode, raw)
	}
	if took := time.Since(start); took > 1500*time.Millisecond {
		t.Errorf("schedule took %v for a 200ms budget over 11 windows", took)
	}
}
