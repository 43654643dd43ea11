package service

import (
	"context"
	"net/http"
)

// Submit submits a job, returning its initial (queued) view. A full
// queue surfaces as *QueueFullError. When ctx carries a correlation ID
// (obs.WithJobID), it is sent as the X-Csim-Job-Id header and becomes
// the job's ID; a duplicate surfaces as an *APIError with status 409.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodPost, "/api/v1/jobs", spec, &v)
	return v, err
}
