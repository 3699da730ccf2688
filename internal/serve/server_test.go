package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"testing"
	"time"
)

// getJSON fetches url and decodes the JSON body, returning the status
// code alongside.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestHotSwapAndRollback(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeSnapshot(t, dir, 1)
	srv := New(Config{SnapshotPath: path})
	if err := srv.Load(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var before struct {
		ConnAS     uint32 `json:"connected_as"`
		Generation uint64 `json:"generation"`
	}
	if code := getJSON(t, ts.URL+"/v1/lookup?ip=10.0.0.1", &before); code != http.StatusOK {
		t.Fatalf("lookup status %d", code)
	}
	if before.Generation != 1 || before.ConnAS != 301 {
		t.Fatalf("initial answer %+v, want generation 1, connAS 301", before)
	}

	// Replace the artifact and swap: same address, new answer, new
	// generation.
	if err := os.WriteFile(path, encodeSnapshot(t, 50), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	var after struct {
		ConnAS     uint32 `json:"connected_as"`
		Generation uint64 `json:"generation"`
	}
	getJSON(t, ts.URL+"/v1/lookup?ip=10.0.0.1", &after)
	if after.Generation != 2 || after.ConnAS != 350 {
		t.Fatalf("post-swap answer %+v, want generation 2, connAS 350", after)
	}

	// Force the post-swap self-check to fail: the pointer must roll
	// back to the generation that was serving, and keep serving it.
	SwapCheckHook = func(*Snapshot) error { return &ValidationError{Reason: "forced by test"} }
	defer func() { SwapCheckHook = nil }()
	if err := os.WriteFile(path, encodeSnapshot(t, 99), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Reload()
	if err == nil {
		t.Fatal("Reload succeeded despite failing post-swap self-check")
	}
	var rolled struct {
		ConnAS     uint32 `json:"connected_as"`
		Generation uint64 `json:"generation"`
	}
	getJSON(t, ts.URL+"/v1/lookup?ip=10.0.0.1", &rolled)
	if rolled.Generation != after.Generation || rolled.ConnAS != after.ConnAS {
		t.Fatalf("rollback did not restore the serving snapshot: %+v, want %+v", rolled, after)
	}
}

func TestReloadEndpointAndProbes(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeSnapshot(t, dir, 1)
	srv := New(Config{SnapshotPath: path})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before Load: alive but not ready, and lookups answer 503.
	if code := getJSON(t, ts.URL+"/-/healthy", nil); code != http.StatusOK {
		t.Errorf("healthy before load: %d", code)
	}
	if code := getJSON(t, ts.URL+"/-/ready", nil); code != http.StatusServiceUnavailable {
		t.Errorf("ready before load: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/v1/lookup?ip=10.0.0.1", nil); code != http.StatusServiceUnavailable {
		t.Errorf("lookup before load: %d, want 503", code)
	}

	if err := srv.Load(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/-/ready", nil); code != http.StatusOK {
		t.Errorf("ready after load: %d", code)
	}

	// Reload via the admin endpoint.
	if err := os.WriteFile(path, encodeSnapshot(t, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if gen, _ := srv.Generation(); gen != 2 {
		t.Errorf("generation after endpoint reload = %d, want 2", gen)
	}

	// A corrupt artifact through the endpoint: 409, old keeps serving.
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("corrupt reload status %d, want 409", resp.StatusCode)
	}
	if gen, _ := srv.Generation(); gen != 2 {
		t.Errorf("generation disturbed by refused endpoint reload: %d", gen)
	}

	// Bad queries are 400s, not 500s.
	if code := getJSON(t, ts.URL+"/v1/lookup", nil); code != http.StatusBadRequest {
		t.Errorf("missing ip param: %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/lookup?ip=not-an-ip", nil); code != http.StatusBadRequest {
		t.Errorf("malformed ip param: %d, want 400", code)
	}

	// Drain: ready flips to 503, API keeps answering.
	srv.StartDrain()
	if code := getJSON(t, ts.URL+"/-/ready", nil); code != http.StatusServiceUnavailable {
		t.Errorf("ready while draining: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/v1/lookup?ip=10.0.0.1", nil); code != http.StatusOK {
		t.Errorf("lookup while draining: %d, want 200 (drain serves in-flight work)", code)
	}
}

// TestFingerprintIdenticalOnEveryRoute: the five routes that name the
// serving snapshot all carry the one string its generation was published
// with, before a reload changes the content and after.
func TestFingerprintIdenticalOnEveryRoute(t *testing.T) {
	path, _ := writeSnapshot(t, t.TempDir(), 1)
	srv := New(Config{SnapshotPath: path})
	if err := srv.Load(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type identity struct {
		Generation  uint64 `json:"generation"`
		Fingerprint string `json:"fingerprint"`
	}
	// sweep reloads whatever is at path through the endpoint, then asks
	// the four read routes, and returns the identity they all agreed on.
	sweep := func() identity {
		t.Helper()
		resp, err := http.Post(ts.URL+"/-/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var want identity
		err = json.NewDecoder(resp.Body).Decode(&want)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("reload: status %d, %v", resp.StatusCode, err)
		}
		gen, fp := srv.Generation()
		if want.Generation != gen || want.Fingerprint != fmt.Sprintf("%#x", fp) {
			t.Fatalf("/-/reload answered %+v, server holds generation %d fingerprint %#x", want, gen, fp)
		}
		for _, route := range []string{"/v1/lookup?ip=10.0.0.1", "/v1/ip2as?ip=10.0.0.1", "/v1/link?ip=10.0.0.1", "/-/ready"} {
			var got identity
			if code := getJSON(t, ts.URL+route, &got); code != http.StatusOK || got != want {
				t.Errorf("%s: status %d, identity %+v, want %+v", route, code, got, want)
			}
		}
		return want
	}
	before := sweep()
	if err := os.WriteFile(path, encodeSnapshot(t, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	after := sweep()
	if after.Generation != before.Generation+1 || after.Fingerprint == before.Fingerprint {
		t.Errorf("reload of new content: %+v after %+v", after, before)
	}
}

// TestAdmissionSheds: below the in-flight budget every class answers in
// full; at the budget the next request is shed with 503 and
// "Retry-After: 1", while the probes keep answering.
func TestAdmissionSheds(t *testing.T) {
	path, snap := writeSnapshot(t, t.TempDir(), 1)
	srv := New(Config{SnapshotPath: path, MaxInflight: 4})
	if err := srv.Load(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the admission budget directly (white box).
	var releases []func()
	hold := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			release := srv.adm.acquire()
			if release == nil {
				t.Fatalf("setup slot %d was shed", i)
			}
			releases = append(releases, release)
		}
	}
	defer func() {
		for _, r := range releases {
			r()
		}
	}()

	hold(3) // budget - 1: the next request is the last one admitted
	var lookup struct {
		Found    bool   `json:"found"`
		RouterAS uint32 `json:"router_as"`
		ConnAS   uint32 `json:"connected_as"`
	}
	want, _ := snap.Lookup(netip.MustParseAddr("10.0.0.1"))
	if code := getJSON(t, ts.URL+"/v1/lookup?ip=10.0.0.1", &lookup); code != http.StatusOK {
		t.Fatalf("lookup one under the budget: status %d", code)
	}
	if !lookup.Found || lookup.RouterAS != want.RouterAS || lookup.ConnAS != want.ConnAS {
		t.Errorf("lookup one under the budget got %+v, want the full answer %+v", lookup, want)
	}
	var link struct {
		Interdomain bool   `json:"interdomain"`
		NearAS      uint32 `json:"near_as"`
		FarAS       uint32 `json:"far_as"`
		Label       string `json:"label"`
	}
	wantLink, _ := snap.LookupLink(netip.MustParseAddr("10.0.0.3"))
	if code := getJSON(t, ts.URL+"/v1/link?ip=10.0.0.3", &link); code != http.StatusOK {
		t.Fatalf("link one under the budget: status %d", code)
	}
	if !link.Interdomain || link.NearAS != wantLink.NearAS || link.FarAS != wantLink.FarAS || link.Label != wantLink.Label {
		t.Errorf("link one under the budget got %+v, want %+v", link, wantLink)
	}

	hold(1) // at the budget: the next request is shed
	resp, err := http.Get(ts.URL + "/v1/lookup?ip=10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("at the budget: status %d, Retry-After %q; want 503 and 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// Probes bypass admission: they must answer while overloaded.
	for _, probe := range []string{"/-/healthy", "/-/ready"} {
		if code := getJSON(t, ts.URL+probe, nil); code != http.StatusOK {
			t.Errorf("%s while overloaded: %d", probe, code)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeSnapshot(t, dir, 1)
	srv := New(Config{SnapshotPath: path})
	if err := srv.Load(); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/panic", srv.api("lookup", func(http.ResponseWriter, *http.Request) {
		panic("poisoned request")
	}))
	mux.Handle("/", srv.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if code := getJSON(t, ts.URL+"/panic", nil); code != http.StatusInternalServerError {
			t.Fatalf("panic request %d: status %d, want 500", i, code)
		}
	}
	// The process survived and the admission budget was not leaked by
	// the panicking requests: normal service continues.
	if code := getJSON(t, ts.URL+"/v1/lookup?ip=10.0.0.1", nil); code != http.StatusOK {
		t.Errorf("lookup after panics: status %d", code)
	}
}

func TestRequestDeadline(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeSnapshot(t, dir, 1)
	srv := New(Config{SnapshotPath: path, RequestTimeout: time.Nanosecond})
	if err := srv.Load(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A deadline that expires before the handler reaches its answer
	// turns into an honest 503, not a stale success.
	time.Sleep(time.Millisecond)
	if code := getJSON(t, ts.URL+"/v1/lookup?ip=10.0.0.1", nil); code != http.StatusServiceUnavailable {
		t.Errorf("expired deadline: status %d, want 503", code)
	}
}

// BenchmarkHandler is the per-request cost of each query class through
// Server.Handler, without a socket: routing, admission, the snapshot
// lookup and the JSON encoding, over the fixture's addresses in turn.
func BenchmarkHandler(b *testing.B) {
	path, snap := writeSnapshot(b, b.TempDir(), 1)
	srv := New(Config{SnapshotPath: path})
	if err := srv.Load(); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	for _, class := range []string{classLookup, classIP2AS, classLink} {
		b.Run(class, func(b *testing.B) {
			urls := make([]string, len(snap.Ifaces))
			for i, iface := range snap.Ifaces {
				urls[i] = "/v1/" + class + "?ip=" + iface.Addr.String()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, urls[i%len(urls)], nil))
				if w.Code != http.StatusOK {
					b.Fatalf("%s: status %d", urls[i%len(urls)], w.Code)
				}
			}
		})
	}
}
