package retry

import (
	"errors"
	"testing"
	"time"
)

// TestPermanentAndDone: a permanent failure and a Done answer both end
// the loop at once, with no retry observed and no sleep.
func TestPermanentAndDone(t *testing.T) {
	boom, stop := errors.New("boom"), errors.New("stop")
	for _, tc := range []struct {
		name  string
		op    func() error
		done  func() error
		want  error
		calls int
	}{
		{"permanent", func() error { return Permanent(boom) }, nil, boom, 1},
		{"done", func() error { return boom }, func() error { return stop }, stop, 1},
		{"not done", func() error { return boom }, func() error { return nil }, boom, 4},
	} {
		calls := 0
		r := &Retrier{
			Sleep: func(time.Duration) {
				if tc.calls == 1 {
					t.Errorf("%s: slept", tc.name)
				}
			},
			Done: tc.done,
		}
		err := r.Do(func() error { calls++; return tc.op() })
		if err != tc.want || calls != tc.calls {
			t.Errorf("%s: Do = %v after %d calls, want %v after %d", tc.name, err, calls, tc.want, tc.calls)
		}
	}
}

// TestRetrierBackoff drives the retrier through a fake clock and pins
// the backoff contract: bounded attempts, delays in [d/2, d] with d
// doubling from Base and capped at Max, and a deterministic jitter
// stream per seed.
func TestRetrierBackoff(t *testing.T) {
	run := func(failures int) (sleeps []time.Duration, calls int, err error) {
		r := &Retrier{
			Attempts: 4,
			Base:     100 * time.Millisecond,
			Max:      300 * time.Millisecond,
			Seed:     42,
			Sleep:    func(d time.Duration) { sleeps = append(sleeps, d) },
		}
		err = r.Do(func() error {
			calls++
			if calls <= failures {
				return errors.New("transient")
			}
			return nil
		})
		return sleeps, calls, err
	}

	sleeps, calls, err := run(2)
	if err != nil || calls != 3 || len(sleeps) != 2 {
		t.Fatalf("recovering op: calls=%d sleeps=%d err=%v", calls, len(sleeps), err)
	}
	for i, want := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		if sleeps[i] < want/2 || sleeps[i] > want {
			t.Errorf("sleep %d = %v, want within [%v, %v]", i, sleeps[i], want/2, want)
		}
	}

	// Same seed, same stream: the schedule is reproducible.
	again, _, _ := run(2)
	for i := range sleeps {
		if sleeps[i] != again[i] {
			t.Errorf("jitter not deterministic: run1[%d]=%v run2[%d]=%v", i, sleeps[i], i, again[i])
		}
	}

	// Exhaustion returns the final error; the last failure does not sleep.
	sleeps, calls, err = run(10)
	if err == nil || calls != 4 || len(sleeps) != 3 {
		t.Fatalf("exhausted op: calls=%d sleeps=%d err=%v", calls, len(sleeps), err)
	}
	// The third backoff doubles past Max and must be capped by it.
	if cap := 300 * time.Millisecond; sleeps[2] < cap/2 || sleeps[2] > cap {
		t.Errorf("capped sleep = %v, want within [%v, %v]", sleeps[2], cap/2, cap)
	}
}

func TestRetrierOnRetry(t *testing.T) {
	var seen []int
	r := &Retrier{
		Attempts: 3,
		Sleep:    func(time.Duration) {},
		OnRetry:  func(attempt int, err error, backoff time.Duration) { seen = append(seen, attempt) },
	}
	boom := errors.New("boom")
	if err := r.Do(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v", err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("OnRetry attempts = %v", seen)
	}
}
