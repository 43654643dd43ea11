package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// QueueFullError is the client-side rendering of a 429: the server's
// admission queue was full. RetryAfter carries the server's hint.
type QueueFullError struct {
	// RetryAfter is the server's suggested backoff.
	RetryAfter time.Duration
	// Msg is the server's error line.
	Msg string
}

// Error renders the rejection with the backoff hint.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("queue full: %s (retry after %s)", e.Msg, e.RetryAfter)
}

// APIError is any non-2xx response other than a queue rejection.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Msg is the server's error line.
	Msg string
	// Problems carries structured diagnostics (netcheck output on a 400).
	Problems []string
}

// Error renders the status and message.
func (e *APIError) Error() string {
	if len(e.Problems) > 0 {
		return fmt.Sprintf("HTTP %d: %s (%d diagnostic(s), first: %s)",
			e.StatusCode, e.Msg, len(e.Problems), e.Problems[0])
	}
	return fmt.Sprintf("HTTP %d: %s", e.StatusCode, e.Msg)
}

// Client talks to a csimd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8416".
	BaseURL string
	// HTTPClient overrides the transport; nil uses http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient builds a client for a server root URL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out,
// translating error statuses into *QueueFullError / *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the correlation ID: a context prepared with
	// obs.WithJobID names the job at submit time and correlates every
	// follow-up request — the coordinator→worker fan-out contract.
	if id := obs.JobIDFrom(ctx); id != "" {
		req.Header.Set(JobIDHeader, id)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		if resp.StatusCode == http.StatusTooManyRequests {
			retry := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				retry = time.Duration(secs) * time.Second
			}
			return &QueueFullError{RetryAfter: retry, Msg: eb.Error}
		}
		return &APIError{StatusCode: resp.StatusCode, Msg: eb.Error, Problems: eb.Problems}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// SubmitHold submits a job on a request the server keeps open once the
// job is admitted (POST ?wait=): the view is the terminal one if the job
// ended within the server's longest hold, the live one otherwise, so a
// job that ends in time is one exchange. Rejections come back at once: a
// full queue as *QueueFullError. When ctx carries a correlation ID
// (obs.WithJobID), it is sent as the X-Csim-Job-Id header and becomes
// the job's ID; a duplicate surfaces as an *APIError with status 409.
func (c *Client) SubmitHold(ctx context.Context, spec JobSpec) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodPost, "/api/v1/jobs?wait="+holdParam, spec, &v)
	return v, err
}

// holdParam is the ?wait= every held request carries: the longest the
// server keeps a request open.
var holdParam = maxHold.String()

// Debug fetches a job's flight-recorder postmortem
// (GET /api/v1/jobs/{id}/debug).
func (c *Client) Debug(ctx context.Context, id string) (Postmortem, error) {
	var pm Postmortem
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/debug", nil, &pm)
	return pm, err
}

// Job fetches a job's current view.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, &v)
	return v, err
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+id, nil, &v)
	return v, err
}

// Hold waits for a job's terminal view by keeping one status request open
// at a time: each carries ?wait=, which the server answers when the job
// ends or after its longest hold (30 s), whichever is first.
func (c *Client) Hold(ctx context.Context, id string) (JobView, error) {
	path := "/api/v1/jobs/" + id + "?wait=" + holdParam
	for {
		var v JobView
		if err := c.do(ctx, http.MethodGet, path, nil, &v); err != nil || v.Status.Terminal() {
			return v, err
		}
	}
}

// Run submits a job and waits for its terminal view in one exchange: the
// submission is held open until the job ends, and only a job that
// outlives the server's longest hold is asked after again (Hold). poll is
// not read; pinned by benchmark/; goes with the `[benchmark]` yardstick
// refresh.
func (c *Client) Run(ctx context.Context, spec JobSpec, poll time.Duration) (JobView, error) {
	v, err := c.SubmitHold(ctx, spec)
	if err != nil || v.Status.Terminal() {
		return v, err
	}
	return c.Hold(ctx, v.ID)
}

// Ready probes the server's /readyz endpoint: nil when the server
// accepts new jobs, an error when it is unreachable or down, and an
// *APIError with status 503 when it is draining. The distributed
// coordinator's worker prober calls this.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Metricsz fetches the server's metrics snapshot (/metricsz) as a
// name → point map for assertions and load reports.
func (c *Client) Metricsz(ctx context.Context) (map[string]obs.Point, error) {
	var doc struct {
		Metrics []obs.Point `json:"metrics"`
	}
	if err := c.do(ctx, http.MethodGet, "/metricsz", nil, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]obs.Point, len(doc.Metrics))
	for _, p := range doc.Metrics {
		out[p.Name] = p
	}
	return out, nil
}
