// Package client is the Go client of tricheckd, the TriCheck streaming
// verification service. It speaks the NDJSON protocol of POST
// /v1/verify — per-(test, stack) verdict records in farm completion
// order, terminated by a summary record — the /v1/coverage ledger and
// the /v1/memo transfer endpoints. The service's counters are Prometheus
// text at /metrics, for a scraper rather than this client.
//
// The wire types come from the versioned tricheck/api package, which the
// server imports too, so the client cannot drift from the service
// schema — and this package depends only on the public wire contract,
// never on server internals:
//
//	c := client.New("http://127.0.0.1:8321")
//	sum, err := c.Verify(ctx, client.Request{Family: "mp"}, func(v client.Verdict) error {
//		fmt.Printf("%s on %s: %s\n", v.Test, v.Stack, v.Verdict)
//		return nil
//	})
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"tricheck/api"
)

// Wire types, aliased from the versioned api package.
type (
	// Request is the /v1/verify request body.
	Request = api.VerifyRequest
	// Verdict is one streamed (test, stack) verdict record.
	Verdict = api.VerdictRecord
	// Divergence is the cross-check payload of a "Divergence" verdict
	// (backend=both).
	Divergence = api.Divergence
	// Summary is the stream's terminal summary record.
	Summary = api.SummaryRecord
	// Coverage is the /v1/coverage response: the engine's
	// verification-coverage ledger snapshot.
	Coverage = api.CoverageSnapshot
)

// sharedTransport is the pooled transport every Client without an
// explicit HTTPClient uses. Keeping idle connections per host means a
// repeat request or a retry reuses a warm TCP connection instead of
// paying a new handshake.
var sharedTransport = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     90 * time.Second,
}

// sharedHTTPClient wraps sharedTransport with no global timeout: verify
// streams are long-lived by design, so deadlines belong to the caller's
// context.
var sharedHTTPClient = &http.Client{Transport: sharedTransport}

// Retry defaults; see Client.
const (
	defaultMaxRetries = 3
	defaultRetryBase  = 100 * time.Millisecond
	defaultRetryCap   = 2 * time.Second
)

// Client talks to one tricheckd instance.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTPClient overrides the shared pooled client when non-nil.
	HTTPClient *http.Client

	// MaxRetries bounds transparent retries of transient failures —
	// connection errors and 5xx responses received before a stream
	// starts. 0 means the default (3); negative disables retries.
	// Requests that reached the server and began streaming are never
	// retried (a replayed sweep would duplicate records), and 4xx
	// responses are terminal.
	MaxRetries int
	// RetryBase and RetryCap shape the capped exponential backoff: sleep
	// k is a uniformly-jittered duration in (0, min(RetryCap,
	// RetryBase<<k)]. Zero values take the defaults (100ms, 2s).
	RetryBase, RetryCap time.Duration
}

// New returns a Client for the service at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return sharedHTTPClient
}

// retries resolves the MaxRetries convention.
func (c *Client) retries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return defaultMaxRetries
	default:
		return c.MaxRetries
	}
}

// backoff returns the jittered sleep before retry attempt k (0-based).
func (c *Client) backoff(k int) time.Duration {
	base, cap := c.RetryBase, c.RetryCap
	if base <= 0 {
		base = defaultRetryBase
	}
	if cap <= 0 {
		cap = defaultRetryCap
	}
	d := base << k
	if d > cap || d <= 0 {
		d = cap
	}
	// Full jitter: desynchronizes many clients retrying the same
	// restarted server.
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// do issues req, transparently retrying transient failures: transport
// errors and 5xx statuses. Non-5xx responses are returned as-is (the
// caller owns the body); retried 5xx bodies are drained and closed so
// the pooled connection is reused. req must carry a rewindable body
// (GetBody non-nil) or none.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, lastErr
				}
				req.Body = body
			}
			select {
			case <-req.Context().Done():
				return nil, lastErr
			case <-time.After(c.backoff(attempt - 1)):
			}
		}
		resp, err := c.http().Do(req)
		switch {
		case err != nil:
			// A cancelled context is the caller giving up, not a flaky
			// worker — propagate immediately.
			if req.Context().Err() != nil {
				return nil, err
			}
			lastErr = err
		case resp.StatusCode >= 500:
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = fmt.Errorf("client: %s: %s", req.URL.Path, resp.Status)
		default:
			return resp, nil
		}
		if attempt >= c.retries() {
			return nil, lastErr
		}
	}
}

// Verify streams a verification sweep. Every verdict record is passed
// to onVerdict (which may be nil) as it arrives; a non-nil error from
// onVerdict aborts the stream — the server sees the disconnect and
// stops scheduling the sweep's remaining jobs. The terminal summary is
// returned; a server-side error record or a truncated stream is an
// error.
func (c *Client) Verify(ctx context.Context, req Request, onVerdict func(Verdict) error) (*Summary, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		// 4xx bodies are structured (api.ErrorResponse); surface the
		// offending fields when the server names them.
		var er api.ErrorResponse
		if json.Unmarshal(msg, &er) == nil && er.Error != "" {
			if len(er.Fields) > 0 {
				fields := make([]string, len(er.Fields))
				for i, f := range er.Fields {
					fields[i] = f.Field
				}
				return nil, fmt.Errorf("client: %s: %s (field %s)", resp.Status, er.Error, strings.Join(fields, ", "))
			}
			return nil, fmt.Errorf("client: %s: %s", resp.Status, er.Error)
		}
		return nil, fmt.Errorf("client: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20) // summary records can be large
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("client: bad stream record: %w", err)
		}
		switch probe.Type {
		case "verdict":
			if onVerdict == nil {
				continue
			}
			var v Verdict
			if err := json.Unmarshal(line, &v); err != nil {
				return nil, fmt.Errorf("client: bad verdict record: %w", err)
			}
			if err := onVerdict(v); err != nil {
				return nil, err
			}
		case "summary":
			var sum Summary
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, fmt.Errorf("client: bad summary record: %w", err)
			}
			return &sum, nil
		case "error":
			var rec api.ErrorRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("client: bad error record: %w", err)
			}
			return nil, fmt.Errorf("client: server aborted sweep: %s", rec.Error)
		default:
			return nil, fmt.Errorf("client: unknown stream record type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading stream: %w", err)
	}
	return nil, fmt.Errorf("client: stream ended without a summary record")
}

// CoverageSnapshot fetches the engine's verification-coverage ledger.
// withVectors controls whether the (test, config) verdict vectors — the
// bulk of the payload after large sweeps — are included (?vectors=0).
func (c *Client) CoverageSnapshot(ctx context.Context, withVectors bool) (*Coverage, error) {
	url := c.BaseURL + "/v1/coverage"
	if !withVectors {
		url += "?vectors=0"
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: %s", resp.Status)
	}
	var snap Coverage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("client: decoding coverage: %w", err)
	}
	return &snap, nil
}

// MemoSnapshot fetches the server's whole memo cache (GET
// /v1/memo/snapshot) in the farm snapshot envelope — the bytes a -cache
// file holds, ready for MemoLoad into another server.
func (c *Client) MemoSnapshot(ctx context.Context) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/memo/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("client: memo snapshot: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return io.ReadAll(resp.Body)
}

// MemoLoad merges snapshot bytes (from MemoSnapshot or a snapshot file)
// into the server's memo cache via POST /v1/memo/load; a malformed or
// version-skewed snapshot is rejected and leaves the cache untouched.
func (c *Client) MemoLoad(ctx context.Context, snapshot []byte) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/memo/load", bytes.NewReader(snapshot))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("client: memo load: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}
