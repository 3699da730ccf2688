package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sync/atomic"
	"testing"
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
