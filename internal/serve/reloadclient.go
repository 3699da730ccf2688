package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/retry"
)

// ReloadClient triggers a daemon's POST /-/reload and absorbs the two
// refusals a healthy deployment produces in the normal course of
// publishing: 409 (the new snapshot is mid-publish and the daemon kept
// the old one serving) and 503 (admission control shed the request).
// Both are transient by design — the publisher's atomic rename lands,
// the in-flight burst drains — so the client retries with bounded
// attempts and jittered exponential backoff instead of failing the
// whole ingest cycle on a race it can simply outwait. Transport errors
// (daemon restarting, listener not up yet) retry the same way; any
// other HTTP status is a real refusal and fails immediately.
//
// The attempts run through retry.Retrier, whose jitter stream is
// deterministic per Seed (xorshift64*), so tests drive the schedule
// through the Sleep seam and two ingesters seeded differently do not
// thunder in lockstep.
type ReloadClient struct {
	// Addr is the daemon address: "host:port" or a full http:// URL.
	Addr string
	// HTTP is the client to use; nil means a default client with a
	// 10s per-request timeout.
	HTTP *http.Client
	// Attempts bounds the tries (default 4).
	Attempts int
	// Base is the first backoff (default 100ms), doubling up to Max
	// (default 5s); each delay is jittered into [d/2, d].
	Base time.Duration
	Max  time.Duration
	// Seed selects the jitter stream; 0 uses a fixed default stream.
	Seed uint64
	// Sleep is the clock seam; nil means time.Sleep.
	Sleep func(time.Duration)
	// OnRetry, when set, observes each scheduled retry: the 1-based
	// attempt that failed, why, and the chosen backoff.
	OnRetry func(attempt int, cause string, backoff time.Duration)
}

// Reload posts /-/reload until the daemon accepts, returning the new
// snapshot generation. Exhausted retries return the last refusal.
func (c *ReloadClient) Reload(ctx context.Context) (uint64, error) {
	url := c.Addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/-/reload"

	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{Timeout: 10 * time.Second}
	}
	r := retry.Retrier{Attempts: c.Attempts, Base: c.Base, Max: c.Max, Seed: c.Seed, Sleep: c.Sleep, Done: ctx.Err}
	if c.OnRetry != nil {
		r.OnRetry = func(attempt int, err error, backoff time.Duration) { c.OnRetry(attempt, err.Error(), backoff) }
	}
	var gen uint64
	err := r.Do(func() error {
		g, retryable, err := c.post(ctx, httpc, url)
		if err != nil && !retryable {
			return retry.Permanent(err)
		}
		gen = g
		return err
	})
	switch {
	case err == nil:
		return gen, nil
	case err == ctx.Err(): // cancelled between attempts
		return 0, err
	}
	return 0, fmt.Errorf("serve: reload %s: %w", c.Addr, err)
}

// post performs one reload attempt. retryable reports whether the
// failure is one the backoff loop should outwait.
func (c *ReloadClient) post(ctx context.Context, httpc *http.Client, url string) (gen uint64, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return 0, false, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, true, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK:
		var out struct {
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return 0, false, fmt.Errorf("reload response: %w", err)
		}
		return out.Generation, false, nil
	case http.StatusConflict, http.StatusServiceUnavailable:
		return 0, true, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	default:
		return 0, false, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}
