// Package retry is the repo's one bounded retry loop with jittered
// exponential backoff: the ingest loop's answer to transient failures —
// a batch file mid-copy, a reload endpoint mid-swap — is to retry a few
// times with growing, jittered delays, and only then give up.
package retry

import (
	"errors"
	"time"
)

// Retrier runs an operation with bounded attempts and jittered
// exponential backoff. The jitter stream is a deterministic xorshift64*
// sequence seeded from Seed (the batch fingerprint, say), so two runs
// over the same inputs back off identically and tests can assert exact
// delays through the Sleep seam.
type Retrier struct {
	// Attempts is the maximum number of tries (default 4).
	Attempts int
	// Base is the first backoff delay (default 100ms); the delay
	// doubles per retry up to Max (default 5s).
	Base time.Duration
	Max  time.Duration
	// Seed selects the jitter stream; 0 uses a fixed default stream.
	Seed uint64
	// Sleep is the clock seam; nil means time.Sleep.
	Sleep func(time.Duration)
	// Done, when set, is asked before each backoff: a non-nil answer
	// (a context's Err, say) ends the loop with that error, unslept.
	Done func() error
	// OnRetry, when set, observes each scheduled retry: the 1-based
	// attempt that just failed, its error, and the backoff chosen
	// before the next attempt.
	OnRetry func(attempt int, err error, backoff time.Duration)
}

// permanent marks an error no retry can cure.
type permanent struct{ err error }

func (p permanent) Error() string { return p.err.Error() }

// Permanent wraps err so that Do returns it at once, without retrying.
func Permanent(err error) error { return permanent{err} }

// Do runs op until it succeeds, fails permanently or attempts are
// exhausted, returning nil or the final attempt's error. Each failed
// attempt (except the last) sleeps a jittered delay in [d/2, d] where d
// doubles from Base and caps at Max — the half-floor keeps retries
// spaced out, the jitter keeps a fleet of ingesters from thundering in
// lockstep.
func (r *Retrier) Do(op func() error) error {
	attempts := r.Attempts
	if attempts <= 0 {
		attempts = 4
	}
	base := r.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := r.Max
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	sleep := r.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	x := r.Seed
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	var err error
	for a := 1; a <= attempts; a++ {
		if err = op(); err == nil {
			return nil
		}
		var p permanent
		if errors.As(err, &p) {
			return p.err
		}
		if a == attempts {
			break
		}
		if r.Done != nil {
			if derr := r.Done(); derr != nil {
				return derr
			}
		}
		d := base << (a - 1)
		if d <= 0 || d > maxd {
			d = maxd
		}
		// xorshift64* step; the high bits are well mixed.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		j := x * 0x2545f4914f6cdd1d
		d = d/2 + time.Duration(j%uint64(d/2+1))
		if r.OnRetry != nil {
			r.OnRetry(a, err, d)
		}
		sleep(d)
	}
	return err
}
