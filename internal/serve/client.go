package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// Client is the thin HTTP client for the coordinator API, used by
// `sdsp-serve -submit` and the smoke/chaos harnesses. It honors the
// coordinator's load-shedding contract: a 503 with Retry-After is a
// backoff instruction, not an error, up to the context deadline.
type Client struct {
	Base string // e.g. "http://localhost:8372"
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Submit normalizes and posts the sweep and returns the job ID,
// retrying through 503 backoff until ctx expires.
func (c *Client) Submit(ctx context.Context, sp *experiments.Sweep) (string, error) {
	if err := sp.Normalize(); err != nil {
		return "", err
	}
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return "", err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return "", fmt.Errorf("decoding submit response: %v", err)
			}
			return st.ID, nil
		case http.StatusServiceUnavailable:
			wait := 5 * time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				wait = time.Duration(secs) * time.Second
			}
			select {
			case <-ctx.Done():
				return "", fmt.Errorf("submit: coordinator unavailable until deadline: %s", data)
			case <-time.After(wait):
			}
		default:
			return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
	}
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string, withCells bool) (*JobStatus, error) {
	url := c.Base + "/v1/jobs/" + id
	if withCells {
		url += "?cells=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s: %s: %s", id, resp.Status, bytes.TrimSpace(data))
	}
	st := &JobStatus{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, err
	}
	return st, nil
}

// WaitTables polls until the job reaches a terminal state and returns
// the assembled tables. A failed job returns its terminal report as
// the error.
func (c *Client) WaitTables(ctx context.Context, id string, poll time.Duration) ([]byte, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/tables", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return nil, err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return data, nil
		case http.StatusConflict:
			var st JobStatus
			if json.Unmarshal(data, &st) == nil && st.State == JobFailed {
				return nil, fmt.Errorf("job %s failed: %s", id, st.Error)
			}
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("job %s still running at deadline", id)
			case <-time.After(poll):
			}
		default:
			return nil, fmt.Errorf("tables %s: %s: %s", id, resp.Status, bytes.TrimSpace(data))
		}
	}
}
