// Command bdrmapitd serves a completed bdrmapIT inference over
// HTTP/JSON: IP → router → operator-AS lookups, the run's ip2as view,
// and is-this-link-interdomain? queries, all answered from a validated
// in-memory snapshot (see -serve-snapshot on cmd/bdrmapit).
//
// Usage:
//
//	bdrmapitd -snapshot FILE [-addr :8080] [-metrics-addr ADDR]
//	          [-max-inflight N] [-request-timeout D] [-drain-timeout D]
//	          [-handler-delay D] [-v]
//
// Endpoints:
//
//	GET  /v1/lookup?ip=A   router, operator AS, connected AS for A
//	GET  /v1/ip2as?ip=A    longest-prefix origin for A
//	GET  /v1/link?ip=A     is A the far side of an interdomain link?
//	GET  /-/healthy        process liveness
//	GET  /-/ready          snapshot published and not draining
//	POST /-/reload         hot-swap the snapshot file
//
// Hot swap: SIGHUP (or POST /-/reload) re-opens -snapshot and swaps it
// in atomically; requests in flight finish on the generation they
// started on. A corrupt, truncated, or fingerprint-mismatched artifact
// is refused — the previous snapshot keeps serving and the refusal is
// reported — and a snapshot that fails its post-swap self-check is
// rolled back.
//
// Overload: a request admitted under -max-inflight concurrent requests
// is answered in full; past it new requests are shed with 503 +
// "Retry-After: 1".
//
// Shutdown: SIGTERM/SIGINT flips /-/ready to 503, drains in-flight
// requests up to -drain-timeout, then exits 0. A second signal
// force-exits with status 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// forcedExitStatus mirrors cmd/bdrmapit: 128+SIGINT, so a supervisor
// can distinguish a forced kill from a graceful drain (0) or a startup
// failure (1).
const forcedExitStatus = 130

func main() {
	log.SetFlags(0)
	log.SetPrefix("bdrmapitd: ")
	var (
		snapshot = flag.String("snapshot", "", "serving snapshot file to load and hot-swap (required)")
		addr     = flag.String("addr", ":8080", "listen address for the serving API")
		metrics  = flag.String("metrics-addr", "", "serve live metrics and pprof at this address (e.g. localhost:6060)")
		maxInfl  = flag.Int("max-inflight", 256, "shed requests with 503 beyond this many in flight (negative disables)")
		reqTO    = flag.Duration("request-timeout", 5*time.Second, "per-request deadline")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		delay    = flag.Duration("handler-delay", 0, "inject artificial per-request latency (load testing only; makes admission pressure reproducible)")
		verbose  = flag.Bool("v", false, "stream serving logs to stderr")
	)
	flag.Parse()
	if *snapshot == "" {
		log.Fatal("-snapshot is required")
	}

	rec := obs.New()
	if *verbose {
		rec.SetLogOutput(os.Stderr)
	}
	if *metrics != "" {
		maddr, err := obs.Serve(*metrics, rec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics and pprof at http://%s/debug/\n", maddr)
	}

	srv := serve.New(serve.Config{
		SnapshotPath:   *snapshot,
		RequestTimeout: *reqTO,
		MaxInflight:    *maxInfl,
		Recorder:       rec,
		HandlerDelay:   *delay,
	})
	if err := srv.Load(); err != nil {
		log.Fatal(err)
	}
	gen, fp := srv.Generation()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := obs.NewServer(srv.Handler())
	// Lookup responses are tiny; the debug server's generous streaming
	// budget would only mask a wedged client here.
	httpSrv.WriteTimeout = *reqTO + 10*time.Second

	// The bound address goes to stdout so scripts (and the smoke test)
	// can bind :0 and discover the port.
	fmt.Printf("bdrmapitd: serving on http://%s (snapshot generation %d, fingerprint %#x)\n", ln.Addr(), gen, fp)

	// SIGHUP hot-swaps; the first SIGINT/SIGTERM drains gracefully; a
	// second force-exits. Reloads are serialized by the server itself.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if gen, err := srv.Reload(); err != nil {
				log.Printf("reload refused: %v", err)
			} else {
				log.Printf("reloaded snapshot: generation %d", gen)
			}
		}
	}()

	term := make(chan os.Signal, 2)
	signal.Notify(term, os.Interrupt, syscall.SIGTERM)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case s := <-term:
		fmt.Fprintf(os.Stderr, "bdrmapitd: %v: draining (signal again to force exit)\n", s)
	}
	go func() {
		s := <-term
		fmt.Fprintf(os.Stderr, "bdrmapitd: %v: forced exit\n", s)
		os.Exit(forcedExitStatus)
	}()

	// Drain: fail the readiness probe first so load balancers stop
	// sending, then let Shutdown finish the in-flight population.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete after %s: %v", *drainTO, err)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bdrmapitd: drained cleanly")
}
