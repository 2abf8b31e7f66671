// Package client is the typed Go client for the fpspyd HTTP/JSON API.
// cmd/fpctl, the end-to-end suite, and the benchmarks drive the daemon
// through it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// Client talks to an fpspyd daemon — or, when BaseURL lists several
// peers comma-separated, to a cluster through whichever peer answers.
//
// Transient failures are absorbed, not surfaced: 429 and 503 responses
// (rate limiting, shed load, drain) are retried with capped exponential
// backoff honoring the daemon's Retry-After hint, and transport errors
// rotate to the next endpoint. Every blocking call has a Context
// variant; cancellation interrupts both requests and backoff sleeps.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8765".
	// A comma-separated list names fallback peers tried in order on
	// transport errors (the cluster-as-one-endpoint mode of fpctl).
	BaseURL string
	// ID identifies this client for rate limiting and accounting; it is
	// sent as the X-FPSpy-Client header when non-empty.
	ID string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// RetryMax bounds request attempts (default 8; negative disables
	// retries entirely, surfacing every 429/503 like the pre-cluster
	// client did).
	RetryMax int
	// RetryBaseWait seeds the exponential backoff (default 50ms).
	RetryBaseWait time.Duration
	// RetryMaxWait caps a single backoff sleep, including the daemon's
	// Retry-After hint (default 5s).
	RetryMaxWait time.Duration

	// endpoints caches the split BaseURL; cur is the sticky index of
	// the endpoint that last answered.
	endpoints []string
	cur       int
}

// New builds a client for the daemon (or comma-separated daemons) at
// baseURL.
func New(baseURL, id string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), ID: id}
}

// Endpoints returns the parsed endpoint list.
func (c *Client) Endpoints() []string {
	if c.endpoints == nil {
		for _, e := range strings.Split(c.BaseURL, ",") {
			if e = strings.TrimRight(strings.TrimSpace(e), "/"); e != "" {
				c.endpoints = append(c.endpoints, e)
			}
		}
	}
	return c.endpoints
}

// retryPolicy resolves the retry knobs with their defaults.
func (c *Client) retryPolicy() (max int, base, cap time.Duration) {
	max = c.RetryMax
	if max == 0 {
		max = 8
	}
	if max < 0 {
		max = 1 // one attempt, no retries
	}
	base = c.RetryBaseWait
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	cap = c.RetryMaxWait
	if cap <= 0 {
		cap = 5 * time.Second
	}
	return max, base, cap
}

// backoffWait computes the sleep before retry attempt (1-based),
// honoring the server's Retry-After hint: the larger of hint and the
// jittered exponential term, capped at maxWait so a hostile or confused
// hint cannot park the client forever.
func backoffWait(attempt int, hint, base, maxWait time.Duration) time.Duration {
	d := base << uint(attempt-1)
	if d <= 0 || d > maxWait {
		d = maxWait
	}
	// Full jitter on the exponential term decorrelates clients that
	// were rejected together.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	if d > maxWait {
		d = maxWait
	}
	return d
}

// retryAfterHint extracts a response's Retry-After as a duration.
func retryAfterHint(err error) time.Duration {
	var rl *RateLimitError
	if errors.As(err, &rl) {
		return rl.RetryAfter
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// retryable reports whether an attempt error is transient: transport
// failures (connection refused mid-restart, dropped peer), 429 rate
// limiting, and 503 shed/drain responses all qualify; other API errors
// (bad submission, unknown job) are permanent.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusServiceUnavailable
	}
	var rl *RateLimitError
	if errors.As(err, &rl) {
		return true
	}
	// Anything that is not a typed daemon response is a transport-level
	// failure and worth retrying against the next endpoint.
	return err != nil
}

// APIError is a non-2xx daemon response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Msg is the daemon's error string.
	Msg string
	// RetryAfter is the daemon's Retry-After hint on 503 responses
	// (zero when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fpspyd: %s (HTTP %d)", e.Msg, e.Status)
}

// RateLimitError is a 429 rejection with the daemon's backoff hint.
type RateLimitError struct {
	// RetryAfter is the daemon's Retry-After value.
	RetryAfter time.Duration
	// Msg is the daemon's error string.
	Msg string
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("fpspyd: %s (retry after %v)", e.Msg, e.RetryAfter)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request under ctx and decodes a JSON response into out
// (when non-nil), translating non-2xx statuses into typed errors.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	resp, err := c.roundTrip(ctx, method, path, data, body != nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// roundTrip issues one logical request with the retry policy applied:
// transient failures back off exponentially (honoring Retry-After) and
// transport errors additionally rotate to the next endpoint. On success
// it returns a 2xx response whose body the caller owns. Requests are
// safe to retry by construction: GETs are idempotent and POST
// /v1/jobs is content-addressed, so a replayed submission attaches to
// the first one's cache entry instead of running a second pass.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, isJSON bool) (*http.Response, error) {
	maxAtt, base, maxWait := c.retryPolicy()
	eps := c.Endpoints()
	if len(eps) == 0 {
		return nil, errors.New("client: no endpoints configured")
	}
	for attempt := 1; ; attempt++ {
		ep := eps[c.cur%len(eps)]
		req, err := http.NewRequestWithContext(ctx, method, ep+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if isJSON {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.ID != "" {
			req.Header.Set(server.ClientHeader, c.ID)
		}
		resp, err := c.httpClient().Do(req)
		if err == nil {
			if serr := checkStatus(resp); serr != nil {
				resp.Body.Close() //nolint:errcheck // error path
				err = serr
			} else {
				return resp, nil
			}
		} else {
			// A transport failure may mean this peer is gone; try the
			// next one on the retry.
			c.cur = (c.cur + 1) % len(eps)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !retryable(err) || attempt >= maxAtt {
			return nil, err
		}
		t := time.NewTimer(backoffWait(attempt, retryAfterHint(err), base, maxWait))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// checkStatus converts an error response into the matching typed error,
// consuming the body.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	var eb struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&eb) //nolint:errcheck // best-effort detail
	if resp.StatusCode == http.StatusTooManyRequests {
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if secs < 1 {
			secs = 1
		}
		return &RateLimitError{RetryAfter: time.Duration(secs) * time.Second, Msg: eb.Error}
	}
	ae := &APIError{Status: resp.StatusCode, Msg: eb.Error}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")); secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// SubmitContext captures-and-ships a clone: it encodes job and posts it
// with the given FPSpy configuration. The context bounds the whole
// exchange, including backoff sleeps.
func (c *Client) SubmitContext(ctx context.Context, job *jobs.Job, cfg fpspy.Config) (*server.SubmitResponse, error) {
	blob, err := job.Encode()
	if err != nil {
		return nil, err
	}
	return c.SubmitBlobContext(ctx, job.Name, blob, cfg)
}

// SubmitBlobContext posts an already-encoded clone (e.g. read from a
// file written by fpctl capture).
func (c *Client) SubmitBlobContext(ctx context.Context, name string, blob []byte, cfg fpspy.Config) (*server.SubmitResponse, error) {
	var resp server.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs",
		server.SubmitRequest{Name: name, Clone: blob, Config: cfg}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitShadowContext posts a clone to /v1/shadowjobs: the pass runs
// with the shadow-precision channel attached and the result stream
// carries the ranked root-cause attribution. prec 0 defers to
// cfg.ShadowPrec, then the server default.
func (c *Client) SubmitShadowContext(ctx context.Context, job *jobs.Job, cfg fpspy.Config, prec uint64) (*server.SubmitResponse, error) {
	blob, err := job.Encode()
	if err != nil {
		return nil, err
	}
	return c.SubmitShadowBlobContext(ctx, job.Name, blob, cfg, prec)
}

// SubmitShadowBlobContext posts an already-encoded clone as a shadow job.
func (c *Client) SubmitShadowBlobContext(ctx context.Context, name string, blob []byte, cfg fpspy.Config, prec uint64) (*server.SubmitResponse, error) {
	var resp server.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/shadowjobs",
		server.ShadowSubmitRequest{Name: name, Clone: blob, Config: cfg, Prec: prec}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// StatusContext fetches a job's lifecycle state.
func (c *Client) StatusContext(ctx context.Context, id string) (*server.StatusResponse, error) {
	var st server.StatusResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WatchContext polls a job until it reaches a terminal state, the
// context is done, or a poll fails permanently. Transient poll failures
// (a daemon restarting underneath the watch, rate limiting) are
// absorbed by the request retry policy rather than surfaced.
func (c *Client) WatchContext(ctx context.Context, id string, interval time.Duration) (*server.StatusResponse, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	for {
		st, err := c.StatusContext(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State == server.StateDone || st.State == server.StateFailed {
			return st, nil
		}
		t := time.NewTimer(interval)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// Result is a fully-read result stream.
type Result struct {
	// Lines are the raw monitor-log lines in stream order.
	Lines []string
	// Events is the parsed monitor log (trace.ParseMonitorLog over
	// Lines) — bit-identical to the in-process store's event list.
	Events []trace.MonitorEvent
	// Sites is the ranked root-cause attribution (shadow jobs only),
	// in stream (rank) order.
	Sites []analysis.RootCauseSite
	// Summary is the stream's closing record.
	Summary server.Summary
}

// StreamResultContext consumes a job's NDJSON result stream, invoking
// fn for every line as it arrives, and returns the final summary. The
// call blocks until the job settles server-side or ctx is done. Retries
// cover establishing the stream; once bytes flow, a broken stream
// surfaces as an error (the caller re-issues, and the settled job
// replays from cache).
func (c *Client) StreamResultContext(ctx context.Context, id string, fn func(server.ResultLine) error) (*server.Summary, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var summary *server.Summary
	sc := bufio.NewScanner(resp.Body)
	// Lines are short: grow from bufio's default buffer, to 16 MiB at most.
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line server.ResultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("client: bad result line: %w", err)
		}
		if fn != nil {
			if err := fn(line); err != nil {
				return nil, err
			}
		}
		if line.Type == "summary" && line.Summary != nil {
			summary = line.Summary
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if summary == nil {
		return nil, fmt.Errorf("client: result stream for %s ended without a summary", id)
	}
	return summary, nil
}

// Result reads a job's whole result: the monitor log (raw and parsed)
// plus the summary.
func (c *Client) Result(id string) (*Result, error) {
	var res Result
	sum, err := c.StreamResultContext(context.Background(), id, func(line server.ResultLine) error {
		switch {
		case line.Type == "event":
			res.Lines = append(res.Lines, line.Line)
		case line.Type == "site" && line.Site != nil:
			res.Sites = append(res.Sites, *line.Site)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Summary = *sum
	res.Events, err = trace.ParseMonitorLog([]byte(strings.Join(res.Lines, "\n")))
	if err != nil {
		return nil, fmt.Errorf("client: monitor log re-parse: %w", err)
	}
	return &res, nil
}

// Figures lists the figure IDs the daemon can compute.
func (c *Client) Figures() ([]string, error) {
	var out struct {
		Figures []string `json:"figures"`
	}
	if err := c.do(context.Background(), http.MethodGet, "/v1/figures", nil, &out); err != nil {
		return nil, err
	}
	return out.Figures, nil
}

// Figure computes one aggregate study table on the daemon.
func (c *Client) Figure(id string) (*server.FigureResponse, error) {
	var fig server.FigureResponse
	if err := c.do(context.Background(), http.MethodGet, "/v1/figures?id="+id, nil, &fig); err != nil {
		return nil, err
	}
	return &fig, nil
}

// Metrics scrapes the daemon's /metrics snapshot.
func (c *Client) Metrics() (obs.Snapshot, error) {
	resp, err := c.roundTrip(context.Background(), http.MethodGet, "/metrics", nil, false)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return obs.Snapshot{}, err
	}
	return obs.ParseSnapshot(buf.Bytes())
}
