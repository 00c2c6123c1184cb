package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tricheck/api"
)

// fastRetries makes backoff negligible so the tests exercise the retry
// logic, not the clock.
func fastRetries(c *Client) *Client {
	c.RetryBase = time.Millisecond
	c.RetryCap = 2 * time.Millisecond
	return c
}

// flaky serves failures for the first n requests, then delegates.
func flaky(n int64, status int, next http.Handler) (http.Handler, *atomic.Int64) {
	var calls atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			http.Error(w, "worker restarting", status)
			return
		}
		next.ServeHTTP(w, r)
	}), &calls
}

func TestRetryRecoversFrom5xx(t *testing.T) {
	okCoverage := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.CoverageSnapshot{Totals: api.CoverageTotals{Jobs: 7}})
	})
	h, calls := flaky(2, http.StatusServiceUnavailable, okCoverage)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := fastRetries(New(ts.URL))
	snap, err := c.CoverageSnapshot(context.Background(), false)
	if err != nil {
		t.Fatalf("CoverageSnapshot after transient 503s: %v", err)
	}
	if snap.Totals.Jobs != 7 {
		t.Fatalf("got Totals.Jobs=%d, want 7", snap.Totals.Jobs)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s + success)", got)
	}
}

func TestRetryVerifyResendsBody(t *testing.T) {
	// The POST body must be rewound for each attempt: the success handler
	// checks it still decodes to the original request.
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.VerifyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Family != "mp" {
			http.Error(w, fmt.Sprintf("body did not survive retry: %v %+v", err, req), http.StatusBadRequest)
			return
		}
		fmt.Fprintln(w, `{"type":"summary","done":1,"total":1,"bugs":0,"strict":0,"equivalent":1,"cached":0,"elapsed_seconds":0,"tests_per_sec":0,"stacks":[],"coverage":{"models":0,"jobs":0,"axioms_fired":0,"axioms_edged":0,"axioms_cycled":0,"vectors":0}}`)
	})
	h, calls := flaky(1, http.StatusBadGateway, ok)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := fastRetries(New(ts.URL))
	sum, err := c.Verify(context.Background(), Request{Family: "mp"}, nil)
	if err != nil {
		t.Fatalf("Verify after transient 502: %v", err)
	}
	if sum.Equivalent != 1 {
		t.Fatalf("summary = %+v, want equivalent=1", sum)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	h, calls := flaky(1<<30, http.StatusInternalServerError, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := fastRetries(New(ts.URL))
	c.MaxRetries = 2
	_, err := c.CoverageSnapshot(context.Background(), false)
	if err == nil {
		t.Fatal("CoverageSnapshot against an always-500 server succeeded")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + MaxRetries)", got)
	}
}

func TestRetryDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "unknown family"})
	}))
	defer ts.Close()

	c := fastRetries(New(ts.URL))
	_, err := c.Verify(context.Background(), Request{Family: "nope"}, nil)
	if err == nil {
		t.Fatal("Verify of a rejected request succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (4xx is terminal)", got)
	}
}

func TestRetryDisabled(t *testing.T) {
	h, calls := flaky(1<<30, http.StatusInternalServerError, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := fastRetries(New(ts.URL))
	c.MaxRetries = -1
	if _, err := c.CoverageSnapshot(context.Background(), false); err == nil {
		t.Fatal("CoverageSnapshot succeeded against an always-500 server")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 with retries disabled", got)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	h, calls := flaky(1<<30, http.StatusServiceUnavailable, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := New(ts.URL)
	c.RetryBase = time.Hour // the cancel must win, not the backoff
	c.RetryCap = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.CoverageSnapshot(ctx, false)
		done <- err
	}()
	// Let the first attempt land, then cancel during the backoff sleep.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("CoverageSnapshot returned nil error after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored context cancellation")
	}
}
