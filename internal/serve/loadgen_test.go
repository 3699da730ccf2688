package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"
)

// TestBenchChecksEveryIP2ASField: a daemon that answers one ip2as query
// with the right origin and source under the wrong prefix is caught —
// Bench counts exactly that response Inconsistent and verifies the rest.
func TestBenchChecksEveryIP2ASField(t *testing.T) {
	path, snap := writeSnapshot(t, t.TempDir(), 1)
	srv := New(Config{SnapshotPath: path})
	if err := srv.Load(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var lied atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		addr, err := netip.ParseAddr(r.URL.Query().Get("ip"))
		p, ok := snap.LookupPrefix(addr)
		if r.URL.Path != "/v1/ip2as" || err != nil || !ok || !lied.CompareAndSwap(false, true) {
			h.ServeHTTP(w, r)
			return
		}
		writeJSON(w, &ip2asResponse{
			IP:          addr.String(),
			Found:       true,
			OriginAS:    p.Origin,
			Prefix:      netip.PrefixFrom(p.Prefix.Addr(), p.Prefix.Bits()-1).String(),
			Source:      p.Kind.String(),
			Generation:  1,
			Fingerprint: fmt.Sprintf("%#x", snap.Fingerprint()),
		})
	}))
	defer ts.Close()

	var addrs []netip.Addr
	for _, iface := range snap.Ifaces {
		addrs = append(addrs, iface.Addr)
	}
	res, err := Bench(context.Background(), BenchConfig{
		BaseURL:  ts.URL,
		Clients:  1,
		Requests: 40,
		Seed:     1,
		Addrs:    addrs,
		Expected: map[uint64]*Snapshot{snap.Fingerprint(): snap},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lied.Load() {
		t.Fatal("the request mix drew no ip2as query the stub could answer wrongly")
	}
	if res.Inconsistent != 1 || res.Failed != 0 || res.OK+res.NotFound != res.Requests-1 {
		t.Errorf("one wrong prefix among %d responses: %s; want inconsistent=1 and every other response verified", res.Requests, res)
	}
}

// TestBenchHonoursRetryAfter runs Bench against a stub that sheds every
// request. Each client must wait the advertised Retry-After between
// requests, and the run must still end at its deadline when the wait
// asked for is longer than what is left of it.
func TestBenchHonoursRetryAfter(t *testing.T) {
	var hits atomic.Int64
	var retry atomic.Value // the Retry-After the stub sheds with
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", retry.Load().(string))
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	run := func(after string, d time.Duration) (*BenchResult, time.Duration) {
		hits.Store(0)
		retry.Store(after)
		start := time.Now()
		res, err := Bench(context.Background(), BenchConfig{
			BaseURL:  ts.URL,
			Clients:  2,
			Duration: d,
			Seed:     1,
			Addrs:    []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(start)
	}

	// Retry-After: 1 over 1.5 s: each client asks at 0 s and at 1 s.
	res, _ := run("1", 1500*time.Millisecond)
	t.Logf("retry after 1 s: %s", res)
	if res.Shed != res.Requests || res.Failed != 0 || res.Requests != hits.Load() {
		t.Errorf("a stub that sheds everything: %s, %d requests served", res, hits.Load())
	}
	if res.Requests < 2 || res.Requests > 4 {
		t.Errorf("2 clients told to retry after 1 s made %d requests in 1.5 s, want 2 to 4", res.Requests)
	}

	// Retry-After: 9 over 0.3 s: the wait is cut to the deadline.
	res, took := run("9", 300*time.Millisecond)
	if res.Requests != 2 || took > 3*time.Second {
		t.Errorf("told to retry after 9 s, a 0.3 s run made %d requests and took %v; want 2 and the deadline", res.Requests, took)
	}
}
