package alias

import (
	"net/netip"
	"sort"
)

// IPIDProber abstracts the active-probing substrate MIDAR needs: reading
// an address's IP-ID counter at a (discrete) probe time. Routers that
// share a counter across interfaces — the signal MIDAR exploits — return
// interleavable values for aliased addresses. ok is false when the
// address does not answer or does not use a shared monotonic counter.
type IPIDProber interface {
	ProbeIPID(addr netip.Addr, t int) (id uint16, ok bool)
}

// MIDAROptions tunes the monotonic-bounds test.
type MIDAROptions struct {
	// Rounds is the number of interleaved elimination-stage rounds
	// (default 8).
	Rounds int
	// VelocityTolerance bounds the relative velocity difference for two
	// addresses to share an elimination bucket (default 0.35).
	VelocityTolerance float64
}

func (o *MIDAROptions) defaults() {
	if o.Rounds <= 0 {
		o.Rounds = 8
	}
	if o.VelocityTolerance <= 0 {
		o.VelocityTolerance = 0.35
	}
}

type midarCand struct {
	addr  netip.Addr
	vel   float64
	times []int
	ids   []uint16
}

// MIDAR runs a MIDAR-style (Keys et al. 2013) alias-resolution sweep
// over the candidate addresses: estimate each responder's IP-ID
// velocity, bucket candidates with compatible velocities, and within a
// bucket run the monotonic-bounds test — interleaved samples of truly
// aliased addresses form a single sequence that increases monotonically
// (mod 2^16). The result has MIDAR's precision profile: shared-counter
// interfaces group; everything else stays singleton.
func MIDAR(p IPIDProber, addrs []netip.Addr, opts MIDAROptions) *Sets {
	opts.defaults()
	const estGap = 8 // virtual time between the two estimation probes
	var cands []midarCand
	for i, a := range addrs {
		t0 := i % 4
		id0, ok0 := p.ProbeIPID(a, t0)
		id1, ok1 := p.ProbeIPID(a, t0+estGap)
		if !ok0 || !ok1 {
			continue
		}
		delta := float64(uint16(id1 - id0)) // wraparound-safe for short gaps
		cands = append(cands, midarCand{addr: a, vel: delta / estGap})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vel != cands[j].vel {
			return cands[i].vel < cands[j].vel
		}
		return cands[i].addr.Less(cands[j].addr)
	})
	sets := NewSets()
	for lo := 0; lo < len(cands); {
		hi := lo + 1
		for hi < len(cands) && compatibleVelocity(cands[lo].vel, cands[hi].vel, opts.VelocityTolerance) {
			hi++
		}
		if hi-lo > 1 {
			midarEliminate(p, cands[lo:hi], opts, sets)
		}
		lo = hi
	}
	return sets
}

func compatibleVelocity(a, b, tol float64) bool {
	hi := a
	if b > hi {
		hi = b
	}
	if hi == 0 {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff/hi <= tol
}

// midarEliminate runs interleaved time-sliced probing over one velocity
// bucket and merges pairs passing the monotonic-bounds test.
func midarEliminate(p IPIDProber, bucket []midarCand, opts MIDAROptions, sets *Sets) {
	n := len(bucket)
	for i := range bucket {
		bucket[i].times, bucket[i].ids = make([]int, 0, opts.Rounds), make([]uint16, 0, opts.Rounds)
	}
	for r := 0; r < opts.Rounds; r++ {
		for i := range bucket {
			t := (r*n + i) * 2 // strictly increasing probe times, interleaved
			id, ok := p.ProbeIPID(bucket[i].addr, t)
			if !ok {
				continue
			}
			bucket[i].times = append(bucket[i].times, t)
			bucket[i].ids = append(bucket[i].ids, id)
		}
	}
	pairIdx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairIdx++
			if sets.SameRouter(bucket[i].addr, bucket[j].addr) {
				continue
			}
			if monotonicBoundsTest(&bucket[i], &bucket[j]) &&
				corroborate(p, &bucket[i], &bucket[j], pairIdx) {
				sets.Add(bucket[i].addr, bucket[j].addr)
			}
		}
	}
}

// corroborate is MIDAR's corroboration stage: a candidate pair is
// re-probed with tightly interleaved samples (alternating every time
// unit). A genuinely shared counter advances by ≈velocity between
// samples in both the a→b and b→a directions; two distinct counters
// with a base offset δ fail one direction unless δ is below the
// per-step velocity — which is what gives MIDAR its precision.
func corroborate(p IPIDProber, a, b *midarCand, pairIdx int) bool {
	base := 1_000_000 + pairIdx*64
	vel := a.vel
	if b.vel > vel {
		vel = b.vel
	}
	limit := vel*1.5 + 4
	var prev uint16
	have := false
	for k := 0; k < 8; k++ {
		t := base + k
		var id uint16
		var ok bool
		if k%2 == 0 {
			id, ok = p.ProbeIPID(a.addr, t)
		} else {
			id, ok = p.ProbeIPID(b.addr, t)
		}
		if !ok {
			return false
		}
		if have {
			adv := uint16(id - prev)
			if float64(adv) > limit {
				return false
			}
		}
		prev, have = id, true
	}
	return true
}

// monotonicBoundsTest merges the two candidates' (time, id) samples in
// time order and checks the merged IP-ID sequence increases
// monotonically modulo 2^16, with the total advance consistent with the
// candidates' shared velocity (MIDAR's MBT). Each candidate's samples
// are in time order and no time is sampled twice in one bucket, so the
// merge is a two-pointer walk that stops at the first failing step.
func monotonicBoundsTest(a, b *midarCand) bool {
	if len(a.ids) < 3 || len(b.ids) < 3 {
		return false
	}
	// Maximum plausible advance between consecutive samples: velocity
	// estimate with generous headroom; a shared counter can also be
	// bumped by background traffic.
	vel := max(a.vel, b.vel)
	var total uint32
	var prevT int
	var prevID uint16
	for i, j := 0, 0; i < len(a.ids) || j < len(b.ids); {
		var t int
		var id uint16
		if j == len(b.ids) || (i < len(a.ids) && a.times[i] < b.times[j]) {
			t, id = a.times[i], a.ids[i]
			i++
		} else {
			t, id = b.times[j], b.ids[j]
			j++
		}
		if i+j > 1 {
			adv := uint16(id - prevID) // mod 2^16
			limit := (vel+2)*float64(t-prevT)*4 + 16
			if float64(adv) > limit {
				return false
			}
			total += uint32(adv)
		}
		prevT, prevID = t, id
	}
	// Reject sequences that wrapped more than once overall (would mask
	// non-monotonicity).
	return total < 1<<15
}
