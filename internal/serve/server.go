package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config sizes one Server. The zero value is usable with defaults
// noted per field; only SnapshotPath is required.
type Config struct {
	// SnapshotPath is the serving-snapshot artifact the server loads at
	// startup and re-opens on every reload request. Producers replace
	// the file atomically (serve.WriteFile), so a reload mid-publish
	// sees either the old or the new complete artifact.
	SnapshotPath string
	// RequestTimeout is the per-request deadline attached to every API
	// request's context (default 5s). A request that outlives it is
	// answered 503.
	RequestTimeout time.Duration
	// MaxInflight is the admission budget: requests beyond this many
	// concurrently in flight are shed with 503 + "Retry-After: 1"
	// (default 256; negative disables shedding).
	MaxInflight int
	// Recorder receives serving metrics (QPS, per-class latency
	// histograms, shed/panic counters, swap generation). Nil
	// disables recording.
	Recorder *obs.Recorder
	// HandlerDelay injects artificial per-request latency after
	// admission (cancelled by the request deadline). Lookups answer in
	// microseconds, so real overload pressure never builds in a test;
	// load tests set this to make admission behaviour reproducible.
	// Zero — always, in production — disables it.
	HandlerDelay time.Duration
}

// SwapCheckHook, when non-nil, runs as an extra post-swap self-check
// against the just-published snapshot; returning an error forces the
// rollback path. Tests use it to prove rollback works; production
// never sets it.
var SwapCheckHook func(*Snapshot) error

// generation pairs a published snapshot with its monotonically
// increasing swap generation. The pair travels as one pointer so a
// request observes a consistent (snapshot, generation) — never a new
// snapshot with an old generation number or vice versa. fp is the
// snapshot's fingerprint as every response carries it, rendered once per
// swap rather than once per request.
type generation struct {
	snap *Snapshot
	gen  uint64
	fp   string
}

// Server serves annotation lookups from an atomically swappable
// snapshot. Construct with New, publish the first snapshot with Load,
// mount Handler on an http.Server (obs.NewServer hardens one), and
// call Reload on SIGHUP or the /-/reload endpoint.
type Server struct {
	cfg Config
	rec *obs.Recorder
	adm *admission

	cur      atomic.Pointer[generation]
	genSeq   atomic.Uint64
	draining atomic.Bool

	// reloadMu serializes Load/Reload so two concurrent reloads cannot
	// interleave their swap/rollback sequences.
	reloadMu sync.Mutex

	requests     *obs.Counter
	panics       *obs.Counter
	notFound     *obs.Counter
	deadline     *obs.Counter
	swaps        *obs.Counter
	swapRefused  *obs.Counter
	swapRollback *obs.Counter
	genGauge     *obs.Gauge
	latency      map[string]*obs.Histogram
}

// New returns an unstarted Server; call Load before serving (Ready
// reports false until a snapshot is published).
func New(cfg Config) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 256
	}
	rec := cfg.Recorder
	s := &Server{
		cfg:          cfg,
		rec:          rec,
		adm:          newAdmission(int64(cfg.MaxInflight), rec),
		requests:     rec.Counter("serve.requests"),
		panics:       rec.Counter("serve.panics"),
		notFound:     rec.Counter("serve.not_found"),
		deadline:     rec.Counter("serve.deadline_exceeded"),
		swaps:        rec.Counter("serve.swaps"),
		swapRefused:  rec.Counter("serve.swap_refused"),
		swapRollback: rec.Counter("serve.swap_rollback"),
		genGauge:     rec.Gauge("serve.generation"),
		latency: map[string]*obs.Histogram{
			classLookup: rec.Histogram("serve.latency_ns.lookup"),
			classIP2AS:  rec.Histogram("serve.latency_ns.ip2as"),
			classLink:   rec.Histogram("serve.latency_ns.link"),
		},
	}
	return s
}

// Load opens, validates, and publishes the configured snapshot for the
// first time. It fails — and the server stays NotReady — rather than
// serving anything unvalidated.
func (s *Server) Load() error {
	_, err := s.swapFromPath()
	return err
}

// Reload re-opens the configured snapshot path and hot-swaps it in.
// On any failure — unreadable file, corrupt artifact, fingerprint
// mismatch, failed self-check, failed post-swap check — the previously
// published snapshot keeps serving untouched and the error reports
// why. On success it returns the new generation.
func (s *Server) Reload() (uint64, error) {
	pub, err := s.swapFromPath()
	if err != nil {
		return 0, err
	}
	return pub.gen, nil
}

func (s *Server) swapFromPath() (*generation, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	snap, err := Open(s.cfg.SnapshotPath)
	if err != nil {
		s.swapRefused.Inc()
		s.rec.Warnf("serve: refusing snapshot swap: %v", err)
		return nil, err
	}
	old := s.cur.Load()
	gen := s.genSeq.Add(1)
	pub := &generation{snap: snap, gen: gen, fp: fmt.Sprintf("%#x", snap.Fingerprint())}
	s.cur.Store(pub)
	// Post-swap self-check through the published pointer: the snapshot
	// must answer correctly from where requests will actually read it.
	if err := s.postSwapCheck(snap); err != nil {
		s.cur.Store(old)
		s.swapRollback.Inc()
		oldGen := uint64(0)
		if old != nil {
			oldGen = old.gen
		}
		s.rec.Warnf("serve: post-swap self-check failed, rolled back to generation %d: %v", oldGen, err)
		return nil, fmt.Errorf("serve: post-swap self-check failed (rolled back to generation %d): %w", oldGen, err)
	}
	s.genGauge.Set(int64(gen))
	s.swaps.Inc()
	s.rec.Logf("serve: published snapshot generation %d (fingerprint %s, %d interfaces, %d routers)",
		gen, pub.fp, len(snap.Ifaces), len(snap.Routers))
	return pub, nil
}

func (s *Server) postSwapCheck(snap *Snapshot) error {
	pub := s.cur.Load()
	if pub == nil || pub.snap != snap {
		return errors.New("published pointer does not hold the new snapshot")
	}
	if err := pub.snap.SelfCheck(); err != nil {
		return err
	}
	if SwapCheckHook != nil {
		return SwapCheckHook(pub.snap)
	}
	return nil
}

// Generation returns the published snapshot's swap generation and
// fingerprint (0, 0 before Load succeeds).
func (s *Server) Generation() (gen, fingerprint uint64) {
	pub := s.cur.Load()
	if pub == nil {
		return 0, 0
	}
	return pub.gen, pub.snap.Fingerprint()
}

// StartDrain flips the server NotReady so load balancers and probes
// stop sending new work; in-flight and still-arriving requests keep
// being answered until the caller shuts the http.Server down. Part of
// the graceful-shutdown sequence, not a kill switch.
func (s *Server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.rec.Logf("serve: draining (ready probe now failing)")
	}
}

// Query classes, used as metric keys.
const (
	classLookup = "lookup"
	classIP2AS  = "ip2as"
	classLink   = "link"
)

// Handler returns the daemon's HTTP API:
//
//	GET  /v1/lookup?ip=A  full answer: router, operator AS, connected AS
//	GET  /v1/ip2as?ip=A   cheap answer: longest-prefix origin from the
//	                      run's ip2as view
//	GET  /v1/link?ip=A    is A the far side of an interdomain link?
//	GET  /-/healthy       process liveness (200 while the process runs)
//	GET  /-/ready         readiness: snapshot published and not draining
//	POST /-/reload        hot-swap the snapshot path; refusals keep the
//	                      old snapshot serving and report 409
//
// All /v1/ routes run under admission control, a per-request deadline,
// panic recovery, and latency/QPS metrics. Probes and reload bypass
// admission (they must answer while overloaded) but keep panic
// recovery.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/lookup", s.api(classLookup, s.handleLookup))
	mux.Handle("GET /v1/ip2as", s.api(classIP2AS, s.handleIP2AS))
	mux.Handle("GET /v1/link", s.api(classLink, s.handleLink))
	mux.Handle("GET /-/healthy", s.recovered(s.handleHealthy))
	mux.Handle("GET /-/ready", s.recovered(s.handleReady))
	mux.Handle("POST /-/reload", s.recovered(s.handleReload))
	return mux
}

// api wraps an API handler with the full robustness stack, outermost
// first: panic recovery (a handler panic must not kill the admission
// accounting either), admission control, the per-request deadline, and
// latency metrics.
func (s *Server) api(class string, h http.HandlerFunc) http.Handler {
	hist := s.latency[class]
	return s.recovered(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		release := s.adm.acquire()
		if release == nil {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded: in-flight budget exhausted, retry later", http.StatusServiceUnavailable)
			return
		}
		defer release()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if s.cfg.HandlerDelay > 0 {
			select {
			case <-time.After(s.cfg.HandlerDelay):
			case <-ctx.Done():
			}
		}

		start := time.Now()
		h(w, r)
		if hist != nil {
			hist.Observe(time.Since(start).Nanoseconds())
		}
	})
}

// recovered converts a handler panic into a 500 and a counter bump
// instead of a dead process: one poisoned request must cost one
// response, never the daemon.
func (s *Server) recovered(h func(w http.ResponseWriter, r *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
				s.rec.Warnf("serve: handler panic on %s: %v", r.URL.Path, v)
				// Best effort: if the handler already started the
				// response this write is a no-op on the status line.
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		h(w, r)
	})
}

// published returns the current generation, or answers 503 and returns
// nil when no snapshot is live (the window before a successful Load).
func (s *Server) published(w http.ResponseWriter) *generation {
	pub := s.cur.Load()
	if pub == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
	}
	return pub
}

// queryAddr parses the ip= query parameter, answering 400 on absence
// or malformation. The second return is false when a response was
// already written.
func (s *Server) queryAddr(w http.ResponseWriter, r *http.Request) (netip.Addr, bool) {
	raw := r.URL.Query().Get("ip")
	if raw == "" {
		http.Error(w, "missing ip= query parameter", http.StatusBadRequest)
		return netip.Addr{}, false
	}
	addr, err := netip.ParseAddr(raw)
	if err != nil {
		http.Error(w, fmt.Sprintf("ip=%q is not an IP address", raw), http.StatusBadRequest)
		return netip.Addr{}, false
	}
	return addr.Unmap(), true
}

// checkDeadline answers 503 if the request's deadline already expired
// (a request that waited out its budget in kernel queues must not be
// answered as if it were fresh). Returns false when a response was
// written.
func (s *Server) checkDeadline(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		s.deadline.Inc()
		http.Error(w, "request deadline exceeded", http.StatusServiceUnavailable)
		return false
	}
	return true
}

// lookupResponse is the /v1/lookup answer. Generation and Fingerprint
// identify the snapshot that produced the whole response, so a client
// can prove no response mixes generations.
type lookupResponse struct {
	IP          string `json:"ip"`
	Found       bool   `json:"found"`
	Router      uint32 `json:"router,omitempty"`
	RouterAS    uint32 `json:"router_as,omitempty"`
	ConnAS      uint32 `json:"connected_as,omitempty"`
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	addr, ok := s.queryAddr(w, r)
	if !ok || !s.checkDeadline(w, r) {
		return
	}
	resp := lookupResponse{
		IP:          addr.String(),
		Generation:  pub.gen,
		Fingerprint: pub.fp,
	}
	if res, ok := pub.snap.Lookup(addr); ok {
		resp.Found = true
		resp.Router = res.Router
		resp.RouterAS = res.RouterAS
		resp.ConnAS = res.ConnAS
	} else {
		s.notFound.Inc()
	}
	writeJSON(w, &resp)
}

// ip2asResponse is the /v1/ip2as answer: the run's ip2as view, a
// query class of its own.
type ip2asResponse struct {
	IP          string `json:"ip"`
	Found       bool   `json:"found"`
	OriginAS    uint32 `json:"origin_as,omitempty"`
	Prefix      string `json:"prefix,omitempty"`
	Source      string `json:"source,omitempty"`
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleIP2AS(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	addr, ok := s.queryAddr(w, r)
	if !ok || !s.checkDeadline(w, r) {
		return
	}
	resp := ip2asResponse{
		IP:          addr.String(),
		Generation:  pub.gen,
		Fingerprint: pub.fp,
	}
	if p, ok := pub.snap.LookupPrefix(addr); ok {
		resp.Found = true
		resp.OriginAS = p.Origin
		resp.Prefix = p.Prefix.String()
		resp.Source = p.Kind.String()
	} else {
		s.notFound.Inc()
	}
	writeJSON(w, &resp)
}

// linkResponse is the /v1/link answer.
type linkResponse struct {
	IP          string `json:"ip"`
	Interdomain bool   `json:"interdomain"`
	NearAS      uint32 `json:"near_as,omitempty"`
	FarAS       uint32 `json:"far_as,omitempty"`
	Label       string `json:"label,omitempty"`
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	addr, ok := s.queryAddr(w, r)
	if !ok || !s.checkDeadline(w, r) {
		return
	}
	resp := linkResponse{
		IP:          addr.String(),
		Generation:  pub.gen,
		Fingerprint: pub.fp,
	}
	if l, ok := pub.snap.LookupLink(addr); ok {
		resp.Interdomain = true
		resp.NearAS = l.NearAS
		resp.FarAS = l.FarAS
		resp.Label = l.Label
	}
	writeJSON(w, &resp)
}

func (s *Server) handleHealthy(w http.ResponseWriter, _ *http.Request) {
	// Liveness only: the process is up and the handler stack works.
	// Readiness (can this process answer correctly?) is /-/ready.
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	pub := s.cur.Load()
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case pub == nil:
		http.Error(w, "no snapshot published", http.StatusServiceUnavailable)
	default:
		writeJSON(w, map[string]any{
			"ready":       true,
			"generation":  pub.gen,
			"fingerprint": pub.fp,
		})
	}
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	pub, err := s.swapFromPath()
	if err != nil {
		// 409: the request conflicted with the artifact's state; the
		// old snapshot keeps serving, which the body says explicitly.
		http.Error(w, fmt.Sprintf("reload refused, previous snapshot still serving: %v", err), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]any{
		"generation":  pub.gen,
		"fingerprint": pub.fp,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	// An encode error here means the client hung up; there is nothing
	// useful to do with it mid-response.
	_ = json.NewEncoder(w).Encode(v)
}
