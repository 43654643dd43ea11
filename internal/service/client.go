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

// Submit submits a job, returning its initial (queued) view. A full
// queue surfaces as *QueueFullError. When ctx carries a correlation ID
// (obs.WithJobID), it is sent as the X-Csim-Job-Id header and becomes
// the job's ID; a duplicate surfaces as an *APIError with status 409.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodPost, "/api/v1/jobs", spec, &v)
	return v, err
}

// SubmitHold is Submit on a request the server keeps open once the job is
// admitted (POST ?wait=hold): the view is the terminal one if the job
// ended within hold, the live one otherwise, so a job that ends in time is
// one exchange. Rejections come back at once, as Submit's do.
func (c *Client) SubmitHold(ctx context.Context, spec JobSpec, hold time.Duration) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodPost, "/api/v1/jobs?wait="+holdParam(hold), spec, &v)
	return v, err
}

// holdParam renders a hold for ?wait=. The server refuses a wait that is
// not positive, so one stands for the longest the server keeps a request.
func holdParam(hold time.Duration) string {
	if hold <= 0 {
		hold = maxHold
	}
	return hold.String()
}

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

// The timed schedule: after the first look, quickPolls looks a defaultPoll
// apart, then one every gap the server suggests for the job.
const (
	defaultPoll = 10 * time.Millisecond
	quickPolls  = 2
)

// Wait waits for a job's terminal view or for ctx to expire. The first
// look is immediate. With poll > 0 the rest follow on that fixed tick.
// With poll <= 0 a job the server has not put on a timer (no poll_ms in
// its live view) is handed to Hold, so its end arrives on the one request
// that waited for it. A timed job is looked at again 10 and 20 ms in and
// from then on at the gap the server suggests: the two quick looks catch a
// job of a few milliseconds, and a csim-grid job is then looked at every
// 100 ms (120, 220, ... ms; see JobSpec.timed). Look times are offsets from
// the first look, not from the previous reply: a reply that arrives late
// (a server whose cores are all busy with the job answers slowly) drops
// the looks it overran and does not shift the ones after it.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobView, error) {
	start := time.Now()
	var next time.Duration // offset of the next look
	looks := 0             // schedule points passed
	t := time.NewTimer(0)
	defer t.Stop()
	<-t.C // fired and drained: every Reset below finds it so
	for {
		v, err := c.Job(ctx, id)
		if err != nil || v.Status.Terminal() {
			return v, err
		}
		if poll <= 0 && v.PollMS <= 0 {
			return c.Hold(ctx, id, 0)
		}
		for ; time.Since(start) >= next; looks++ {
			switch {
			case poll > 0:
				next += poll
			case looks < quickPolls:
				next += defaultPoll
			default:
				next += max(defaultPoll, time.Duration(v.PollMS)*time.Millisecond)
			}
		}
		t.Reset(next - time.Since(start))
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-t.C:
		}
	}
}

// Hold waits for a job's terminal view by keeping one status request open
// at a time: each carries ?wait=hold, which the server answers when the
// job ends or after hold (at most 30 s, which is also what a hold that is
// not positive asks for), whichever is first.
func (c *Client) Hold(ctx context.Context, id string, hold time.Duration) (JobView, error) {
	path := "/api/v1/jobs/" + id + "?wait=" + holdParam(hold)
	for {
		var v JobView
		if err := c.do(ctx, http.MethodGet, path, nil, &v); err != nil || v.Status.Terminal() {
			return v, err
		}
	}
}

// Run submits a job and waits for its terminal view. With poll <= 0 that
// is one exchange wherever the server does not put the job on a timer:
// the submission is held open until the job ends, and only a job that
// outlives the server's longest hold is asked after again (Hold). A timed
// job (JobSpec.timed: a whole csim-grid job) is submitted and then looked
// at on Wait's schedule; poll > 0 does that for any job, on that tick.
func (c *Client) Run(ctx context.Context, spec JobSpec, poll time.Duration) (JobView, error) {
	if poll > 0 || spec.timed() {
		v, err := c.Submit(ctx, spec)
		if err != nil {
			return v, err
		}
		return c.Wait(ctx, v.ID, poll)
	}
	v, err := c.SubmitHold(ctx, spec, 0)
	if err != nil || v.Status.Terminal() {
		return v, err
	}
	return c.Hold(ctx, v.ID, 0)
}

// Ready probes the server's /readyz endpoint: nil when the server
// accepts new jobs, an error when it is unreachable, down, or
// draining. The distributed coordinator's worker prober calls this.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Metricsz fetches the server's metrics snapshot (/metricsz) as a
// name → point map for assertions and load reports.
func (c *Client) Metricsz(ctx context.Context) (map[string]obs.Point, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metricsz: HTTP %d", resp.StatusCode)
	}
	var doc struct {
		Metrics []obs.Point `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("metricsz: %w", err)
	}
	out := make(map[string]obs.Point, len(doc.Metrics))
	for _, p := range doc.Metrics {
		out[p.Name] = p
	}
	return out, nil
}
