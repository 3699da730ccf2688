package bdrmapit

import (
	"context"
	"fmt"
	"os"

	"repro/internal/alias"
	"repro/internal/asrel"
	"repro/internal/core"
	"repro/internal/ip2as"
	"repro/internal/obs"
	"repro/internal/traceroute"
)

// feedDepth is how many decoded chunks may wait between the producer
// and the Builder. Whichever side is slower sets the pace, and the
// channel only has to keep the faster one from stalling on a hiccup of
// the other — one long AddTraces, the wait for the RIB — so two chunks
// do what any larger number does (measured at 1, 2 and 4: the same wall
// clock), and the corpus in flight stays at feedDepth queued, one being
// filled and one being added, however large the files are.
const feedDepth = 2

// feedItem is what the producer hands the Builder's goroutine: a chunk
// of traces in corpus order, or the mark that the last of
// Sources.TraceroutePaths has been read or skipped.
type feedItem struct {
	traces   []*traceroute.Trace
	baseDone bool
}

// traceSource yields more traces after the base files, in order, to
// emit. A failure of one is the run's failure: the error budget covers
// Sources.TraceroutePaths only.
type traceSource func(emit func(*traceroute.Trace) error) error

// contextInputs is everything a run loads that is not a trace. The
// routes themselves are let go once the origin table and the
// relationships have been derived from them.
type contextInputs struct {
	resolver *ip2as.Resolver
	routes   int
	rels     *asrel.Graph
	aliases  *alias.Sets
}

// head is the start of a run as a small dependency graph instead of a
// chain (DESIGN §19). One producer goroutine decodes the trace files in
// Sources order into chunks on a bounded channel; the context files
// load on a second goroutine and the input digest runs on a third; the
// caller's goroutine feeds next to core.Builder.BuildFrom as soon as
// open has returned the resolver and alias sets. No trace is held once
// the Builder has added its chunk.
//
// What a run does about a bad file never depends on which goroutine got
// where first. Failures are accounted in Sources field order, as when
// the classes loaded one after another: the producer owns the budget
// until the last trace file is done, the other loaders' failures wait
// for it (loader.pending), and join settles them.
type head struct {
	l      *loader
	src    Sources
	base   bool // whether the base trace files are streamed
	cancel context.CancelFunc

	ch chan feedItem
	// baseTraces and prodErr are the producer's: the first is written
	// before the baseDone mark is sent, the second before ch is closed.
	baseTraces int
	prodErr    error

	ctxDone chan struct{}
	in      *contextInputs
	ctxErr  error
	pending []sourceFailure

	digDone chan struct{}
	dig     uint64

	// failed is the error next returned, so a caller can tell a run that
	// failed loading from one the Builder's own context check stopped.
	failed error
}

// open starts the head of a run and returns once the context files are
// loaded. The corpus it streams is src.TraceroutePaths — unless base is
// false: the caller holds their graph already — then tail; digest says
// whether the run needs digestSources, which reads the base trace files
// either way. The caller must close the head on every path.
func (l *loader) open(src Sources, base bool, tail []traceSource, digest bool) (*head, error) {
	ctx, cancel := context.WithCancel(l.ctx)
	l.ctx = ctx // what the loader starts from here on stops with the head
	l.span = l.rec.Root("load-inputs")
	h := &head{
		l: l, src: src, base: base, cancel: cancel,
		ch:      make(chan feedItem, feedDepth),
		ctxDone: make(chan struct{}),
		digDone: make(chan struct{}),
	}
	beside := *l
	beside.pending = &h.pending
	// Spans are opened here, in report order, and ended where the work is.
	traceSpan := l.span.Child("load-traces")
	go func() {
		defer close(h.ch)
		h.prodErr = h.produce(tail, traceSpan)
	}()
	go func() {
		defer close(h.ctxDone)
		h.in, h.ctxErr = beside.loadContext(src)
	}()
	if digest {
		span := l.rec.Root("digest-inputs")
		go func() {
			defer close(h.digDone)
			h.dig = digestSources(ctx, src)
			span.End()
		}()
	} else {
		close(h.digDone)
	}

	<-h.ctxDone
	err := h.ctxErr
	switch {
	case err != nil && base:
		// A trace file that ends the run comes first in Sources order, so
		// whether one does is found out before this error is returned.
		if perr := h.drainBase(); perr != nil {
			err = perr
		}
	case err == nil && !base:
		// With no base file to wait for, the inputs are loaded now.
		err = h.join()
	}
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// build goes from files to a graph, the one way every run does: the head
// over src and tail (open), a Builder — img replayed, or a new one when
// img is nil, and then the base trace files are streamed too — and
// BuildFrom. The Builder takes the run's Workers and the loader's
// recorder. The caller closes the returned head; on an error there is
// none to close.
func (l *loader) build(src Sources, img *core.Image, tail []traceSource, digest bool) (*head, *core.Builder, *core.Graph, error) {
	// The build observes the caller's context: the head's own is cancelled
	// by a base file that ends the run, whose error next must return.
	ctx := l.ctx
	h, err := l.open(src, img == nil, tail, digest)
	if err != nil {
		return nil, nil, nil, err
	}
	var b *core.Builder
	if img != nil {
		b = img.Replay(h.in.resolver, h.in.aliases, l.opts.Workers, l.rec)
	} else {
		b = core.NewBuilder(h.in.resolver, h.in.aliases)
		b.Workers, b.Rec = l.opts.Workers, l.rec
	}
	g, err := b.BuildFrom(ctx, h.next, h.in.rels)
	if err != nil {
		h.close()
		if h.failed != nil {
			return nil, nil, nil, h.failed
		}
		return nil, nil, nil, fmt.Errorf("%s: %w", l.who, err)
	}
	return h, b, g, nil
}

// close stops whatever the head still has running and waits for it: no
// goroutine of a run outlives the call that started it.
func (h *head) close() {
	h.cancel()
	for range h.ch {
	}
	<-h.ctxDone
	<-h.digDone
}

// drainBase discards chunks up to the baseDone mark and reports the
// error that stopped the producer short of it, if one did.
func (h *head) drainBase() error {
	for it := range h.ch {
		if it.baseDone {
			return nil
		}
	}
	return h.prodErr
}

// next is the chunk source core.Builder.BuildFrom reads: the next chunk
// in corpus order, an empty one at the end.
func (h *head) next() ([]*traceroute.Trace, error) {
	for it := range h.ch {
		if !it.baseDone {
			return it.traces, nil
		}
		if err := h.join(); err != nil {
			h.failed = err
			return nil, err
		}
	}
	h.failed = h.prodErr
	return nil, h.prodErr
}

// join runs when both the base trace files and the context files are
// done: it settles the failures that waited for the budget, in the order
// they happened, and refuses a run left with nothing to work on.
func (h *head) join() error {
	l := h.l
	for _, f := range h.pending {
		if err := l.settle(f); err != nil {
			return err
		}
	}
	l.span.End()
	l.rec.Logf("inputs loaded: %d traces, %d routes, %d rir prefixes, %d ixp prefixes",
		h.baseTraces, h.in.routes, h.in.resolver.Delegations.NumPrefixes(), h.in.resolver.IXPs.Len())
	// The error budget may have consumed every required file; an empty
	// required class is an operational failure no fallback covers.
	if h.base && h.baseTraces == 0 {
		return fmt.Errorf("%s: no traces loaded from %d %s input(s)", l.who, len(h.src.TraceroutePaths), l.corpus)
	}
	if h.in.routes == 0 && len(h.src.BGPRIBPaths) > 0 {
		return fmt.Errorf("%s: no routes loaded from %d RIB input(s)", l.who, len(h.src.BGPRIBPaths))
	}
	return nil
}

// digest waits for the input digest.
func (h *head) digest() uint64 {
	<-h.digDone
	return h.dig
}

// produce is the producer goroutine: every base file and the baseDone
// mark when it streams them, every tail source, cut into chunks of
// core.TraceBatch that run on across file boundaries, as if the corpus
// were one slice. A base file that ends the run stops the loaders beside
// the producer too — nothing they find can come before it.
func (h *head) produce(tail []traceSource, span *obs.Span) error {
	l := h.l
	out := &chunker{ctx: l.ctx, ch: h.ch}
	if h.base {
		var err error
		if h.baseTraces, err = l.feedBase(h.src.TraceroutePaths, out); err != nil {
			h.cancel()
			return err
		}
	}
	span.Note("traces", int64(h.baseTraces))
	span.End()
	if h.base {
		if err := out.send(feedItem{baseDone: true}); err != nil {
			return err
		}
	}
	for _, src := range tail {
		if err := l.checkCtx(); err != nil {
			return err
		}
		if err := src(out.add); err != nil {
			if cerr := l.checkCtx(); cerr != nil {
				return cerr
			}
			return err
		}
	}
	return out.flush()
}

// feedBase decodes the base trace files into out under the error
// budget. A file that fails mid-read must contribute nothing when the
// run goes on without it, so its traces are withheld until it has been
// read to the end exactly when a failure would be skipped — which is
// known when the file is opened: the budget is this goroutine's alone
// until the last trace file is done. Otherwise a failure ends the run,
// nothing the Builder was given survives it, and chunks go out as they
// fill.
func (l *loader) feedBase(paths []string, out *chunker) (total int, err error) {
	for _, p := range paths {
		if err := l.checkCtx(); err != nil {
			return total, err
		}
		emit := out.add
		var held []*traceroute.Trace
		if !l.opts.Strict && l.badRequired < l.opts.MaxBadInputFiles {
			emit = func(t *traceroute.Trace) error {
				held = append(held, t)
				return nil
			}
		}
		stats, err := readTraceFile(l.ctx, p, emit)
		if err != nil {
			// A read the run's cancellation cut short is not a bad file.
			if cerr := l.checkCtx(); cerr != nil {
				return total, cerr
			}
			if ferr := l.failRequired("traceroute", p, err); ferr != nil {
				return total, ferr
			}
			continue
		}
		for _, t := range held {
			if err := out.add(t); err != nil {
				return total, err
			}
		}
		total += stats.Traces
		l.rec.Counter("load.traces").Add(int64(stats.Traces))
		l.rec.Counter("load.traces.skipped_records").Add(int64(stats.SkippedRecords))
		l.rec.Counter("load.traces.dropped_hops").Add(int64(stats.DroppedHops))
		l.rec.Logf("loaded %d traces from %s", stats.Traces, p)
	}
	return total, nil
}

// chunker cuts a stream of traces into chunks of core.TraceBatch and
// sends each as it fills, observing cancellation at every hand-off.
type chunker struct {
	ctx context.Context
	ch  chan<- feedItem
	cur []*traceroute.Trace
}

func (c *chunker) add(t *traceroute.Trace) error {
	if c.cur == nil {
		c.cur = make([]*traceroute.Trace, 0, core.TraceBatch)
	}
	c.cur = append(c.cur, t)
	if len(c.cur) == core.TraceBatch {
		return c.flush()
	}
	return nil
}

func (c *chunker) flush() error {
	if len(c.cur) == 0 {
		return nil
	}
	chunk := c.cur
	c.cur = nil
	return c.send(feedItem{traces: chunk})
}

func (c *chunker) send(it feedItem) error {
	select {
	case c.ch <- it:
		return nil
	case <-c.ctx.Done():
		return loadCancelled(c.ctx)
	}
}

// readTraceFile streams one traceroute archive to emit.
func readTraceFile(ctx context.Context, path string, emit func(*traceroute.Trace) error) (traceroute.ReadStats, error) {
	var stats traceroute.ReadStats
	f, err := os.Open(path)
	if err != nil {
		return stats, fmt.Errorf("bdrmapit: %w", err)
	}
	defer f.Close()
	// A read blocked on a pipe or a stalled mount ends when the run does.
	defer context.AfterFunc(ctx, func() { f.Close() })()
	if stats, err = traceroute.Read(path, f, emit); err != nil {
		return stats, fmt.Errorf("bdrmapit: traces %s: %w", path, err)
	}
	return stats, nil
}
