package alias

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/netutil"
)

// The oracles below are the sort- and map-based forms of the
// monotonic-bounds test and kapar's conflict check, kept to hold the
// merge-walk forms to the same verdicts. They share no code with them.

func oracleMonotonicBoundsTest(a, b *midarCand) bool {
	if len(a.ids) < 3 || len(b.ids) < 3 {
		return false
	}
	type sample struct {
		t  int
		id uint16
	}
	merged := make([]sample, 0, len(a.ids)+len(b.ids))
	for k := range a.ids {
		merged = append(merged, sample{a.times[k], a.ids[k]})
	}
	for k := range b.ids {
		merged = append(merged, sample{b.times[k], b.ids[k]})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].t < merged[j].t })
	vel := a.vel
	if b.vel > vel {
		vel = b.vel
	}
	var total uint32
	for i := 1; i < len(merged); i++ {
		dt := merged[i].t - merged[i-1].t
		adv := uint16(merged[i].id - merged[i-1].id)
		limit := (vel+2)*float64(dt)*4 + 16
		if float64(adv) > limit {
			return false
		}
		total += uint32(adv)
	}
	return total < 1<<15
}

func oracleMateConflict(sets *Sets, x, y netip.Addr) bool {
	gx := sets.Members(x)
	gy := sets.Members(y)
	if len(gy) < len(gx) {
		gx, gy = gy, gx
	}
	in := make(map[netip.Addr]bool, len(gy))
	for _, m := range gy {
		in[m] = true
	}
	for _, m := range gx {
		for _, mate := range oracleSubnetMates(m) {
			if in[mate] {
				return true
			}
		}
	}
	return false
}

func oracleSubnetMates(addr netip.Addr) []netip.Addr {
	addr = addr.Unmap()
	if !addr.Is4() {
		return nil
	}
	v := netutil.AddrToUint32(addr)
	mates := make([]netip.Addr, 0, 2)
	mates = append(mates, netutil.Uint32ToAddr(v^1))
	switch v & 3 {
	case 1:
		mates = append(mates, netutil.Uint32ToAddr(v+1))
	case 2:
		mates = append(mates, netutil.Uint32ToAddr(v-1))
	}
	return mates
}

func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(41))}
}

// randomBucketPair draws two candidates of one velocity bucket the way
// midarEliminate samples them — bucket positions i and j of n, probe
// time (r·n+pos)·2, some rounds missing — with IDs from one counter
// (sometimes wrapping past 2^16), two counters, noise, or one counter
// with a single sample set back, and velocities that are often equal.
func randomBucketPair(rng *rand.Rand) (a, b *midarCand) {
	n := 2 + rng.Intn(6)
	rounds := 1 + rng.Intn(10)
	perm := rng.Perm(n)
	base := uint16(rng.Intn(1 << 16))
	if rng.Intn(3) == 0 {
		base = 0xffff - uint16(rng.Intn(64)) // wraps within the sweep
	}
	vel := float64(rng.Intn(4)) + rng.Float64()*3
	mode := rng.Intn(4)
	cand := func(pos int, base uint16, vel float64) *midarCand {
		c := &midarCand{vel: vel}
		for r := range rounds {
			if rng.Intn(5) == 0 {
				continue // no reply this round
			}
			t := (r*n + pos) * 2
			id := base + uint16(int(vel*float64(t)))
			if mode == 2 {
				id = uint16(rng.Intn(1 << 16))
			}
			c.times = append(c.times, t)
			c.ids = append(c.ids, id)
		}
		return c
	}
	a = cand(perm[0], base, vel)
	if mode == 1 {
		base += uint16(rng.Intn(200))
		if rng.Intn(2) == 0 {
			vel += rng.Float64() * 2
		}
	}
	b = cand(perm[1], base, vel)
	if mode == 3 && len(a.ids) > 0 {
		a.ids[rng.Intn(len(a.ids))] -= uint16(rng.Intn(1000))
	}
	return a, b
}

func TestMonotonicBoundsMatchesOracle(t *testing.T) {
	pass := 0
	prop := func(seed int64) bool {
		a, b := randomBucketPair(rand.New(rand.NewSource(seed)))
		want := oracleMonotonicBoundsTest(a, b)
		if want {
			pass++
		}
		return monotonicBoundsTest(a, b) == want && monotonicBoundsTest(b, a) == want
	}
	if err := quick.Check(prop, quickConfig()); err != nil {
		t.Fatal(err)
	}
	if pass == 0 {
		t.Fatal("no sampled pair passed the test: the property exercised only rejections")
	}
}

// randomPartition groups addresses of one /27, so that groups share
// /30s and /31s and many addresses stay singletons.
func randomPartition(rng *rand.Rand) (*Sets, []netip.Addr) {
	pool := make([]netip.Addr, 32)
	for i := range pool {
		pool[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})
	}
	s := NewSets()
	for range rng.Intn(12) {
		group := make([]netip.Addr, 1+rng.Intn(4))
		for i := range group {
			group[i] = pool[rng.Intn(len(pool))]
		}
		s.Add(group...)
	}
	return s, pool
}

func TestMateConflictMatchesOracle(t *testing.T) {
	conflicts := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, pool := randomPartition(rng)
		for range 16 {
			x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			want := oracleMateConflict(s, x, y)
			if want {
				conflicts++
			}
			if mateConflict(s, x, y) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig()); err != nil {
		t.Fatal(err)
	}
	if conflicts == 0 {
		t.Fatal("no sampled merge conflicted: the property exercised only one verdict")
	}
}

func TestSubnetMatesMatchesOracle(t *testing.T) {
	prop := func(b [16]byte, form uint8) bool {
		var addr netip.Addr
		switch form % 3 {
		case 0:
			addr = netip.AddrFrom4([4]byte(b[:4]))
		case 1:
			addr = netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16()) // 4in6
		default:
			addr = netip.AddrFrom16(b)
		}
		mates, n := subnetMates(addr)
		return slices.Equal(mates[:n], oracleSubnetMates(addr))
	}
	if err := quick.Check(prop, quickConfig()); err != nil {
		t.Fatal(err)
	}
}
