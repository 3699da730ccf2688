package topo

import (
	"math/rand"
	"net/netip"

	"repro/internal/shard"
	"repro/internal/traceroute"
)

// probe simulates the traceroute from vp to dst. Each (vp, dst) pair
// draws from its own seeding of rng, so a pair traces the same whichever
// campaign or engine probes it, and in whatever order; rng is only
// scratch a caller reuses across pairs.
func (in *Internet) probe(vp VP, dst netip.Addr, rng *rand.Rand) *traceroute.Trace {
	rng.Seed(in.Cfg.Seed ^ int64(vp.AS.ASN)<<32 ^ int64(addrSeed(dst)))
	return in.Traceroute(vp, dst, rng)
}

// newProbeRNG returns a generator for probe to reseed pair by pair; its
// lazySource makes a seeding cost the draws that follow it.
func newProbeRNG() *rand.Rand {
	s := new(lazySource)
	s.Seed(0)
	return rand.New(s)
}

// probeTarget is one step of the campaign walk: it probes dst from
// every VP into row, in VP order, leaving nil where a VP yields no
// trace (dst is its own address, dst is unreachable, or nothing
// replied). Every VP's path toward dst reads one routing tree, and
// consecutive targets in one AS share it, so a bounded tree cache is
// hit in runs.
func (in *Internet) probeTarget(vps []VP, dst netip.Addr, row []*traceroute.Trace, rng *rand.Rand) {
	for i, vp := range vps {
		row[i] = nil
		if dst == vp.Src {
			continue
		}
		if t := in.probe(vp, dst, rng); t != nil && len(t.Hops) > 0 {
			row[i] = t
		}
	}
}

// RunCampaign probes every target from every VP, returning the combined
// trace archive ordered by VP, then target. Each (vp, target) pair uses
// an independent seeded rng, so campaigns are reproducible and VP
// subsets are consistent with the full run (needed for the §7.3
// VP-count sweep). The walk is StreamCampaign's, destination by
// destination, with the targets split into contiguous shards across
// GOMAXPROCS workers; the traces are regrouped VP-major at the end.
func (in *Internet) RunCampaign(vps []VP, targets []netip.Addr) []*traceroute.Trace {
	nv := len(vps)
	grid := make([]*traceroute.Trace, len(targets)*nv) // row j: target j from every VP
	shard.For(len(targets), 0, func(lo, hi int) {
		rng := newProbeRNG()
		for j := lo; j < hi; j++ {
			in.probeTarget(vps, targets[j], grid[j*nv:(j+1)*nv], rng)
		}
	})
	traces := make([]*traceroute.Trace, 0, len(grid))
	for i := range vps {
		for j := range targets {
			if t := grid[j*nv+i]; t != nil {
				traces = append(traces, t)
			}
		}
	}
	return traces
}

// StreamCampaign probes every target from every VP — the same
// (vp, target) pairs and per-trace results as RunCampaign — but hands
// traces to emit in bounded chunks instead of materializing the
// archive. Combined with Config.RouteCacheTrees this keeps generation
// memory independent of the AS population: the live state is one chunk
// of traces plus a bounded tree cache.
//
// Emission order is (target, then VP), both in the caller's order —
// deterministic and independent of chunk: concatenating the chunks of
// any chunk size yields the same sequence, RunCampaign's traces
// ordered destination-major.
//
// chunk <= 0 means one emit with the whole campaign. The slice passed
// to emit is reused between calls; callers that retain traces past the
// callback must copy the slice (the *Trace values themselves are never
// reused). A non-nil error from emit aborts the campaign and is
// returned unchanged.
func (in *Internet) StreamCampaign(vps []VP, targets []netip.Addr, chunk int,
	emit func([]*traceroute.Trace) error) error {

	if chunk <= 0 {
		chunk = len(vps)*len(targets) + 1
	}
	buf := make([]*traceroute.Trace, 0, chunk)
	row := make([]*traceroute.Trace, len(vps))
	rng := newProbeRNG()
	for _, dst := range targets {
		in.probeTarget(vps, dst, row, rng)
		for _, t := range row {
			if t == nil {
				continue
			}
			buf = append(buf, t)
			if len(buf) >= chunk {
				if err := emit(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		return emit(buf)
	}
	return nil
}

// CollectCampaign runs StreamCampaign and gathers every chunk into one
// archive — the convenience path for consumers (like the benchmark
// harness) that need the traces in memory anyway, in destination-major
// order.
func (in *Internet) CollectCampaign(vps []VP, targets []netip.Addr, chunk int) []*traceroute.Trace {
	var out []*traceroute.Trace
	// The emit callback never fails, so neither can the campaign.
	_ = in.StreamCampaign(vps, targets, chunk, func(ts []*traceroute.Trace) error {
		out = append(out, ts...)
		return nil
	})
	return out
}
