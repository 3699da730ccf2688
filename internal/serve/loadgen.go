package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/netip"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// BenchConfig drives one load-generation run against a live daemon.
type BenchConfig struct {
	// BaseURL is the daemon's API root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent requesters (default 8).
	Clients int
	// Requests is the total request budget across all clients; when 0,
	// Duration bounds the run instead.
	Requests int64
	// Duration bounds the run in wall time when Requests is 0 (default
	// 5s).
	Duration time.Duration
	// ZipfS is the skew of the address-popularity distribution
	// (default 1.2; must be > 1). Real lookup traffic is heavy-tailed,
	// so the bench is too.
	ZipfS float64
	// Seed makes the load mix reproducible.
	Seed int64
	// Addrs is the address population clients draw from. A few
	// guaranteed-miss addresses are worth including: misses exercise a
	// different code path than hits.
	Addrs []netip.Addr
	// Expected maps snapshot fingerprint → the snapshot that responses
	// carrying that fingerprint must agree with. During a hot-swap
	// test both the old and the new snapshot are present, so every
	// response is checkable no matter which side of the swap served
	// it — and a response mixing fields across generations, or
	// carrying an unknown fingerprint, is counted Inconsistent.
	Expected map[uint64]*Snapshot
}

// BenchResult aggregates one run. The invariants a robustness test
// asserts: Failed == 0 and Inconsistent == 0 across a hot swap; Shed >
// 0 when the run deliberately overloads the daemon.
type BenchResult struct {
	Requests     int64 // responses received (any status)
	OK           int64 // 200s that verified against Expected
	Degraded     int64 // always 0: the daemon answers in full or sheds
	NotFound     int64 // 200s with found=false that were correct misses
	Shed         int64 // 503s (admission shedding or pre-ready)
	Failed       int64 // transport errors and unexpected statuses
	Inconsistent int64 // 200s contradicting the Expected snapshot

	// Generations is the set of snapshot generations observed in
	// successful responses — a hot-swap run should see at least two.
	Generations map[uint64]int64

	// Latency quantiles over successful responses, in nanoseconds.
	P50, P99 int64
}

func (r *BenchResult) String() string {
	var gens []string
	for g, n := range r.Generations {
		gens = append(gens, fmt.Sprintf("gen%d:%d", g, n))
	}
	sort.Strings(gens)
	return fmt.Sprintf("requests=%d ok=%d notfound=%d shed=%d failed=%d inconsistent=%d p50=%s p99=%s generations=[%s]",
		r.Requests, r.OK, r.NotFound, r.Shed, r.Failed, r.Inconsistent,
		time.Duration(r.P50), time.Duration(r.P99), strings.Join(gens, " "))
}

// Bench runs the configured load against the daemon and verifies every
// successful response against the Expected snapshots. A client whose
// request is shed waits what the 503's Retry-After asks, cut short by
// the end of the run. ctx cancels the run early (in-flight requests
// finish).
func Bench(ctx context.Context, cfg BenchConfig) (*BenchResult, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("serve: Bench needs a BaseURL")
	}
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("serve: Bench needs a non-empty address population")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}

	var deadline context.Context = ctx
	if cfg.Duration > 0 && cfg.Requests <= 0 {
		var cancel context.CancelFunc
		deadline, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// The request budget is shared: clients draw from one pot so a
	// slow client cannot strand part of the budget.
	remaining := cfg.Requests
	var budgetMu sync.Mutex
	takeTicket := func() bool {
		if cfg.Requests <= 0 {
			return deadline.Err() == nil
		}
		budgetMu.Lock()
		defer budgetMu.Unlock()
		if remaining <= 0 || deadline.Err() != nil {
			return false
		}
		remaining--
		return true
	}

	var (
		mu        sync.Mutex
		total     BenchResult
		latencies []int64
	)
	total.Generations = make(map[uint64]int64)

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Per-client RNG: same seed → same mix, no shared lock.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Addrs)-1))
			client := &http.Client{Timeout: 30 * time.Second}
			var local BenchResult
			local.Generations = make(map[uint64]int64)
			var localLat []int64
			for takeTicket() {
				addr := cfg.Addrs[zipf.Uint64()]
				class := pickClass(rng)
				start := time.Now()
				ok, wait := doRequest(deadline, client, cfg, class, addr, &local)
				if ok {
					localLat = append(localLat, time.Since(start).Nanoseconds())
				}
				if wait > 0 {
					// Honour the daemon's Retry-After, but never past
					// the end of the run.
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-deadline.Done():
					}
					t.Stop()
				}
			}
			mu.Lock()
			total.Requests += local.Requests
			total.OK += local.OK
			total.NotFound += local.NotFound
			total.Shed += local.Shed
			total.Failed += local.Failed
			total.Inconsistent += local.Inconsistent
			for g, n := range local.Generations {
				total.Generations[g] += n
			}
			latencies = append(latencies, localLat...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		total.P50 = latencies[len(latencies)/2]
		total.P99 = latencies[len(latencies)*99/100]
	}
	return &total, nil
}

// pickClass draws the query mix: lookups dominate (they are the
// daemon's reason to exist), with ip2as and link queries mixed in.
func pickClass(rng *rand.Rand) string {
	switch n := rng.Intn(10); {
	case n < 6:
		return classLookup
	case n < 8:
		return classIP2AS
	default:
		return classLink
	}
}

// doRequest issues one query and folds the outcome into local. ok is
// true when the response was a verified success (for latency
// accounting); wait is the Retry-After of a shed response.
func doRequest(ctx context.Context, client *http.Client, cfg BenchConfig, class string, addr netip.Addr, local *BenchResult) (ok bool, wait time.Duration) {
	url := fmt.Sprintf("%s/v1/%s?ip=%s", cfg.BaseURL, class, addr)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		local.Failed++
		return false, 0
	}
	resp, err := client.Do(req)
	if err != nil {
		// Cancellation at end-of-run is the bench stopping, not the
		// daemon failing.
		if ctx.Err() != nil {
			return false, 0
		}
		local.Failed++
		return false, 0
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	closeErr := resp.Body.Close()
	local.Requests++
	if err != nil || closeErr != nil {
		local.Failed++
		return false, 0
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to verification
	case http.StatusServiceUnavailable:
		local.Shed++
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")) // delay-seconds; 0 when absent
		return false, time.Duration(secs) * time.Second
	default:
		local.Failed++
		return false, 0
	}
	return verifyResponse(cfg, class, addr, body, local), 0
}

// verifyResponse checks one 200 body against the Expected snapshot
// identified by the response's own fingerprint. Every field the
// response asserts must match what that snapshot would answer; any
// disagreement — including a fingerprint no expected snapshot carries,
// which is what a torn cross-generation response would produce — is
// Inconsistent.
func verifyResponse(cfg BenchConfig, class string, addr netip.Addr, body []byte, local *BenchResult) bool {
	var env struct {
		Found       bool   `json:"found"`
		Router      uint32 `json:"router"`
		RouterAS    uint32 `json:"router_as"`
		ConnAS      uint32 `json:"connected_as"`
		OriginAS    uint32 `json:"origin_as"`
		Prefix      string `json:"prefix"`
		Source      string `json:"source"`
		Interdomain bool   `json:"interdomain"`
		NearAS      uint32 `json:"near_as"`
		FarAS       uint32 `json:"far_as"`
		Label       string `json:"label"`
		Generation  uint64 `json:"generation"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		local.Inconsistent++
		return false
	}
	fp, err := strconv.ParseUint(strings.TrimPrefix(env.Fingerprint, "0x"), 16, 64)
	if err != nil {
		local.Inconsistent++
		return false
	}
	snap := cfg.Expected[fp]
	if snap == nil {
		local.Inconsistent++
		return false
	}
	local.Generations[env.Generation]++

	consistent := true
	switch class {
	case classLookup:
		res, ok := snap.Lookup(addr)
		if env.Found != ok || (ok && (env.Router != res.Router || env.RouterAS != res.RouterAS || env.ConnAS != res.ConnAS)) {
			consistent = false
		} else if ok {
			local.OK++
		} else {
			local.NotFound++
		}
	case classIP2AS:
		p, ok := snap.LookupPrefix(addr)
		if env.Found != ok || (ok && (env.OriginAS != p.Origin || env.Prefix != p.Prefix.String() || env.Source != p.Kind.String())) {
			consistent = false
		} else if ok {
			local.OK++
		} else {
			local.NotFound++
		}
	case classLink:
		l, ok := snap.LookupLink(addr)
		if env.Interdomain != ok || (ok && (env.NearAS != l.NearAS || env.FarAS != l.FarAS || env.Label != l.Label)) {
			consistent = false
		} else if ok {
			local.OK++
		} else {
			local.NotFound++
		}
	}
	if !consistent {
		local.Inconsistent++
		return false
	}
	return true
}

// SweepAnnotations replays every interface from an offline annotations
// file ("addr routerAS connAS" per line, the bdrmapit -annotations
// format) against the daemon and demands the answers be byte-equal:
// re-rendering each /v1/lookup response in the same format must
// reproduce the input line exactly. Returns the number of addresses
// verified.
func SweepAnnotations(ctx context.Context, baseURL, annotationsPath string) (int, error) {
	f, err := os.Open(annotationsPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		fields := strings.Fields(string(line))
		if len(fields) != 3 {
			return n, fmt.Errorf("annotations line %d: want 3 fields, got %d", n+1, len(fields))
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil {
			return n, fmt.Errorf("annotations line %d: %v", n+1, err)
		}
		url := fmt.Sprintf("%s/v1/lookup?ip=%s", baseURL, addr)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return n, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return n, err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return n, err
		}
		if resp.StatusCode != http.StatusOK {
			return n, fmt.Errorf("lookup %s: status %d: %s", addr, resp.StatusCode, bytes.TrimSpace(body))
		}
		var env struct {
			Found    bool   `json:"found"`
			RouterAS uint32 `json:"router_as"`
			ConnAS   uint32 `json:"connected_as"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return n, fmt.Errorf("lookup %s: bad response body: %v", addr, err)
		}
		if !env.Found {
			return n, fmt.Errorf("lookup %s: daemon has no answer but the annotations file does", addr)
		}
		rendered := fmt.Sprintf("%s %d %d", addr, env.RouterAS, env.ConnAS)
		if rendered != strings.TrimRight(string(line), "\r\n") {
			return n, fmt.Errorf("lookup %s: daemon answer %q != annotations line %q", addr, rendered, string(line))
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
