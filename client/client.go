// Package client is the typed Go client for hiperbotd, the HiPerBOt
// tuning daemon (internal/server). It wraps the JSON API in Go
// methods, retries transient failures (network errors, 429, 5xx)
// with capped exponential backoff, and offers Tune, a one-call remote
// ask/tell loop.
//
//	cl, _ := client.New("http://localhost:8080")
//	id, _ := cl.CreateSessionFromSpace(ctx, "my-run", sp, client.SessionOptions{Seed: 1})
//	info, _ := cl.Tune(ctx, id, objective, 48, 4, time.Minute)
//	fmt.Println(info.Best.Config, info.Best.Value)
//
// Observe is idempotent server-side, and suggested candidates are
// leased with deadlines, so a worker that retries — or crashes and
// never reports — cannot corrupt or strand a session.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
)

// Wire types, re-exported so callers need only this package.
type (
	// SessionOptions configures a session (zero = paper defaults).
	SessionOptions = httpapi.SessionOptions
	// Result pairs a configuration (name→label map) with its value.
	Result = httpapi.Result
	// SessionInfo reports a session's progress.
	SessionInfo = httpapi.SessionInfo
	// SuggestResponse returns leased candidates.
	SuggestResponse = httpapi.SuggestResponse
	// RenewResponse reports which leases were extended.
	RenewResponse = httpapi.RenewResponse
	// ObserveResponse acknowledges reported results.
	ObserveResponse = httpapi.ObserveResponse
	// MetricsResponse is the daemon's /metrics payload.
	MetricsResponse = httpapi.MetricsResponse
	// ImportanceResponse is the per-parameter marginal report payload.
	ImportanceResponse = httpapi.ImportanceResponse
	// MarginalReport summarizes one parameter's fitted densities.
	MarginalReport = httpapi.MarginalReport
	// HealthResponse is the daemon's /healthz payload.
	HealthResponse = httpapi.HealthResponse
)

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After delay on 429/503
	// responses (zero when absent). The retry loop waits this long
	// instead of its own backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("hiperbotd: HTTP %d: %s", e.Status, e.Message)
}

// IsNotFound reports whether err is a 404 APIError.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// Client talks to one hiperbotd instance, or to any node of a
// hiperbotd cluster: a node forwards requests for sessions it does not
// own, so the client never sees the topology.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	maxBackoff time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default: 30 s timeout).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a transient failure is retried
// (default 4; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the initial and maximum retry backoff
// (default 100 ms doubling up to 3 s).
func WithBackoff(initial, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxBackoff = initial, max }
}

// New builds a client for the daemon at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: invalid base URL %q", baseURL)
	}
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         &http.Client{Timeout: 30 * time.Second},
		maxRetries: 4,
		backoff:    100 * time.Millisecond,
		maxBackoff: 3 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// CreateSession creates a session from already-serialized Space JSON.
// name == "" lets the daemon pick an id.
func (c *Client) CreateSession(ctx context.Context, name string, spaceJSON []byte, opts SessionOptions) (string, error) {
	req := httpapi.CreateSessionRequest{Name: name, Space: spaceJSON, Options: opts}
	var resp httpapi.CreateSessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// CreateSessionFromSpace is CreateSession for a json.Marshaler space
// (e.g. *hiperbot.Space). Remember that constraint predicates do not
// serialize: the daemon tunes the unconstrained space.
func (c *Client) CreateSessionFromSpace(ctx context.Context, name string, sp json.Marshaler, opts SessionOptions) (string, error) {
	data, err := sp.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("client: marshaling space: %w", err)
	}
	return c.CreateSession(ctx, name, data, opts)
}

// Suggest leases up to count candidates. lease bounds how long they
// stay reserved (0 uses the server default).
func (c *Client) Suggest(ctx context.Context, id string, count int, lease time.Duration) (*SuggestResponse, error) {
	req := httpapi.SuggestRequest{Count: count, LeaseSeconds: lease.Seconds()}
	var resp SuggestResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/suggest", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Renew extends the leases on candidates this worker still holds (as
// returned by Suggest), measured from now. RenewResponse.Lost lists
// configs whose leases had already expired — the candidates went back
// to the pool and may have been re-suggested, so the worker should
// abandon those evaluations. Long-running workers call this
// periodically (well under the lease duration) to keep their
// candidates fenced.
func (c *Client) Renew(ctx context.Context, id string, configs []map[string]string, lease time.Duration) (*RenewResponse, error) {
	req := httpapi.RenewRequest{Configs: configs, LeaseSeconds: lease.Seconds()}
	var resp RenewResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/renew", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Observe reports evaluated results; duplicates are idempotent.
func (c *Client) Observe(ctx context.Context, id string, results []Result) (*ObserveResponse, error) {
	var resp ObserveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/observe",
		httpapi.ObserveRequest{Results: results}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Status fetches a session's progress.
func (c *Client) Status(ctx context.Context, id string) (*SessionInfo, error) {
	var resp SessionInfo
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Importance fetches a session's per-parameter marginal reports,
// sorted by descending importance. The daemon answers 409 while the
// session is still in its initial phase (no fitted surrogate yet).
func (c *Client) Importance(ctx context.Context, id string) (*ImportanceResponse, error) {
	var resp ImportanceResponse
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/importance", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Sessions lists every live session.
func (c *Client) Sessions(ctx context.Context) ([]SessionInfo, error) {
	var resp httpapi.SessionListResponse
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// DeleteSession drops a session and its journal.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Health checks daemon liveness.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var resp HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the daemon's request counters and latency
// summaries.
func (c *Client) Metrics(ctx context.Context) (*MetricsResponse, error) {
	var resp MetricsResponse
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Objective evaluates one suggested configuration (a name→label map;
// parse it with Space.FromLabels when the space is known locally).
// Lower values are better.
type Objective func(config map[string]string) (float64, error)

// MetricObjective evaluates one suggested configuration and reports
// named metrics alongside the scalar value, for sessions created with
// SessionOptions.Objectives. The metrics map must contain every
// metric the session's objectives read; a nil map makes every
// objective fall back to value (the legacy contract).
type MetricObjective func(config map[string]string) (value float64, metrics map[string]float64, err error)

// Tune drives the whole remote ask/tell loop: lease up to batch
// candidates, evaluate them with obj, report the results, and repeat
// until the session holds budget evaluations or the space is
// exhausted. It returns the final session status.
func (c *Client) Tune(ctx context.Context, id string, obj Objective, budget, batch int, lease time.Duration) (*SessionInfo, error) {
	return c.TuneMetrics(ctx, id, func(cfg map[string]string) (float64, map[string]float64, error) {
		v, err := obj(cfg)
		return v, nil, err
	}, budget, batch, lease)
}

// TuneMetrics is Tune for multi-metric objectives: each evaluation
// reports its named metrics alongside the scalar value, so sessions
// created with SessionOptions.Objectives can derive their objective
// vectors (and, with two or more objectives, their Pareto front —
// read it from the returned SessionInfo.ParetoFront).
func (c *Client) TuneMetrics(ctx context.Context, id string, obj MetricObjective, budget, batch int, lease time.Duration) (*SessionInfo, error) {
	if batch < 1 {
		batch = 1
	}
	info, err := c.Status(ctx, id)
	if err != nil {
		return nil, err
	}
	// Each observe answers with the session's evaluation count, so the
	// loop polls no status between batches.
	for n := info.Evaluations; n < budget; {
		sug, err := c.Suggest(ctx, id, min(batch, budget-n), lease)
		if err != nil {
			return nil, err
		}
		if len(sug.Candidates) == 0 {
			break // pool exhausted
		}
		results := make([]Result, 0, len(sug.Candidates))
		for _, cfg := range sug.Candidates {
			v, metrics, err := obj(cfg)
			if err != nil {
				return nil, fmt.Errorf("client: objective: %w", err)
			}
			results = append(results, Result{Config: cfg, Value: v, Metrics: metrics})
		}
		obs, err := c.Observe(ctx, id, results)
		if err != nil {
			return nil, err
		}
		n = obs.Evaluations
	}
	return c.Status(ctx, id)
}

// maxRetryAfter caps how long a server-directed Retry-After delay is
// honored, so a misconfigured daemon cannot park a worker for an hour.
const maxRetryAfter = time.Minute

// do runs one JSON round-trip with retry on transient failures.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, c.base+path, body, out)
		if err == nil {
			return nil
		}
		if attempt >= c.maxRetries || !transient(err) {
			return err
		}
		wait := delay
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			// The server said when to come back (429/503 Retry-After) —
			// honor that instead of guessing with exponential backoff.
			wait = min(ae.RetryAfter, maxRetryAfter)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		delay *= 2
		if delay > c.maxBackoff {
			delay = c.maxBackoff
		}
	}
}

// once performs a single HTTP exchange against an absolute URL.
func (c *Client) once(ctx context.Context, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var apiErr httpapi.ErrorResponse
		msg := http.StatusText(resp.StatusCode)
		if data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil {
			if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
				msg = apiErr.Error
			}
		}
		return &APIError{
			Status:     resp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// parseRetryAfter reads a Retry-After header: delta-seconds or an
// HTTP date. Zero when absent or malformed.
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// transient reports whether err is worth retrying: network-level
// failures and 429/5xx responses. Context cancellation and deadline
// expiry are never transient — the caller asked to stop, so the retry
// loop must return immediately instead of burning through the backoff
// schedule.
func transient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	// Anything else that never produced an HTTP status is a transport
	// failure (refused connection, reset, timeout) — retryable.
	return true
}
