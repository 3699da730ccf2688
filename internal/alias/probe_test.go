package alias

import (
	"net/netip"
	"testing"

	"repro/internal/traceroute"
)

// fakeNet is a probing substrate with explicit router definitions.
type fakeNet struct {
	// router id per address
	owner map[netip.Addr]int
	// per-router IP-ID counters
	base map[int]uint16
	vel  map[int]float64
	// routers without shared counters
	noShared map[int]bool
	// canonical UDP reply source per router (zero = reply from probed addr)
	canonical map[int]netip.Addr
}

func newFakeNet() *fakeNet {
	return &fakeNet{
		owner:     make(map[netip.Addr]int),
		base:      make(map[int]uint16),
		vel:       make(map[int]float64),
		noShared:  make(map[int]bool),
		canonical: make(map[int]netip.Addr),
	}
}

func (f *fakeNet) addRouter(id int, base uint16, vel float64, addrs ...string) {
	f.base[id] = base
	f.vel[id] = vel
	for _, s := range addrs {
		f.owner[netip.MustParseAddr(s)] = id
	}
}

func (f *fakeNet) ProbeIPID(addr netip.Addr, t int) (uint16, bool) {
	id, ok := f.owner[addr]
	if !ok || f.noShared[id] {
		return 0, false
	}
	return f.base[id] + uint16(int(f.vel[id]*float64(t))), true
}

func (f *fakeNet) ProbeUDP(addr netip.Addr) (netip.Addr, bool) {
	id, ok := f.owner[addr]
	if !ok {
		return netip.Addr{}, false
	}
	if c := f.canonical[id]; c.IsValid() {
		return c, true
	}
	return addr, true
}

func (f *fakeNet) addrs() []netip.Addr {
	var out []netip.Addr
	for a := range f.owner {
		out = append(out, a)
	}
	sortAddrs(out)
	return out
}

func TestMIDARGroupsSharedCounters(t *testing.T) {
	f := newFakeNet()
	f.addRouter(1, 100, 2.0, "10.0.0.1", "10.0.0.5", "10.0.0.9")
	f.addRouter(2, 40000, 2.0, "10.0.1.1", "10.0.1.5") // same velocity, far base
	f.addRouter(3, 7000, 5.5, "10.0.2.1", "10.0.2.5")
	sets := MIDAR(f, f.addrs(), MIDAROptions{})
	mustSame := [][2]string{
		{"10.0.0.1", "10.0.0.5"}, {"10.0.0.5", "10.0.0.9"},
		{"10.0.1.1", "10.0.1.5"}, {"10.0.2.1", "10.0.2.5"},
	}
	for _, p := range mustSame {
		if !sets.SameRouter(netip.MustParseAddr(p[0]), netip.MustParseAddr(p[1])) {
			t.Errorf("true aliases %v not grouped", p)
		}
	}
	mustDiffer := [][2]string{
		{"10.0.0.1", "10.0.1.1"}, {"10.0.0.1", "10.0.2.1"}, {"10.0.1.1", "10.0.2.1"},
	}
	for _, p := range mustDiffer {
		if sets.SameRouter(netip.MustParseAddr(p[0]), netip.MustParseAddr(p[1])) {
			t.Errorf("distinct routers %v falsely merged", p)
		}
	}
}

func TestMIDARSkipsNonMonotonic(t *testing.T) {
	f := newFakeNet()
	f.addRouter(1, 0, 1.0, "10.0.0.1", "10.0.0.2")
	f.noShared[1] = true
	sets := MIDAR(f, f.addrs(), MIDAROptions{})
	if sets.NumAddrs() != 0 {
		t.Errorf("non-shared-counter router grouped: %d addrs", sets.NumAddrs())
	}
}

func TestMIDARSameVelocityCloseBases(t *testing.T) {
	// Two routers with identical velocity and nearby (but not equal)
	// bases: the corroboration stage must keep them apart when the
	// offset exceeds the per-step advance.
	f := newFakeNet()
	f.addRouter(1, 1000, 1.0, "10.0.0.1", "10.0.0.2")
	f.addRouter(2, 1300, 1.0, "10.0.1.1", "10.0.1.2")
	sets := MIDAR(f, f.addrs(), MIDAROptions{})
	if sets.SameRouter(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1")) {
		t.Error("offset counters falsely merged")
	}
	if !sets.SameRouter(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")) {
		t.Error("true aliases missed")
	}
}

func TestIffinder(t *testing.T) {
	f := newFakeNet()
	f.addRouter(1, 0, 1, "10.0.0.1", "10.0.0.2", "10.0.0.250")
	f.canonical[1] = netip.MustParseAddr("10.0.0.250")
	f.addRouter(2, 0, 1, "10.0.1.1", "10.0.1.2") // replies from probed addr
	sets := Iffinder(f, f.addrs())
	if !sets.SameRouter(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")) {
		t.Error("canonical-source aliases not grouped")
	}
	if _, ok := sets.GroupOf(netip.MustParseAddr("10.0.1.1")); ok {
		t.Error("self-replying addrs should stay singleton")
	}
}

func tr(vp string, hops ...traceroute.Hop) *traceroute.Trace {
	return &traceroute.Trace{VP: vp, Dst: netip.MustParseAddr("203.0.113.1"), Hops: hops}
}

func hop(addr string, ttl uint8) traceroute.Hop {
	return traceroute.Hop{Addr: netip.MustParseAddr(addr), ProbeTTL: ttl, Reply: traceroute.TimeExceeded}
}

func TestKaparMateInference(t *testing.T) {
	// Link 10.0.0.0/30: router A has .1, router B has .2. A trace
	// crossing A→B shows (aIngress, .2); kapar should put the mate of
	// .2 (= .1) on the router of aIngress.
	traces := []*traceroute.Trace{
		tr("vp", hop("192.0.2.9", 1), hop("10.0.0.2", 2)),
		// .1 observed elsewhere so the mate is known.
		tr("vp", hop("198.51.100.7", 1), hop("10.0.0.1", 2)),
	}
	sets := Kapar(traces, nil)
	if !sets.SameRouter(a("192.0.2.9"), a("10.0.0.1")) {
		t.Error("mate of subsequent hop not placed on previous router")
	}
	if sets.SameRouter(a("10.0.0.1"), a("10.0.0.2")) {
		t.Error("the two ends of a /30 must never alias")
	}
}

func TestKaparConflictConstraint(t *testing.T) {
	// A gap pair that would place both ends of 10.0.0.0/30 on one
	// router must be rejected.
	traces := []*traceroute.Trace{
		tr("vp", hop("192.0.2.9", 1), hop("10.0.0.2", 2)), // .1 onto 192.0.2.9's router
		tr("vp", hop("10.0.0.2", 1), hop("10.0.0.6", 3)),  // mate(.6)=.5 unobserved
		tr("vp", hop("10.0.0.6", 1), hop("10.0.0.1", 3)),  // would merge .2 with .2's mate group
	}
	sets := Kapar(traces, nil)
	if sets.SameRouter(a("10.0.0.1"), a("10.0.0.2")) {
		t.Error("conflict constraint failed: /30 endpoints aliased")
	}
}

func TestKaparIXPFilter(t *testing.T) {
	isIXP := func(ad netip.Addr) bool {
		return netip.MustParsePrefix("11.0.0.0/24").Contains(ad)
	}
	traces := []*traceroute.Trace{
		tr("vp", hop("11.0.0.5", 1), hop("11.0.0.6", 2)),
		tr("vp", hop("192.0.2.1", 1), hop("11.0.0.6", 2)),
	}
	sets := Kapar(traces, isIXP)
	if sets.NumAddrs() != 0 {
		t.Errorf("IXP addresses produced merges: %d", sets.NumAddrs())
	}
}

func TestSubnetMates(t *testing.T) {
	mates, n := subnetMates(a("10.0.0.1"))
	want := map[netip.Addr]bool{a("10.0.0.0"): true, a("10.0.0.2"): true}
	for _, m := range mates[:n] {
		if !want[m] {
			t.Errorf("unexpected mate %v", m)
		}
		delete(want, m)
	}
	if len(want) != 0 {
		t.Errorf("missing mates: %v", want)
	}
	if got, n := subnetMates(a("2001:db8::1")); n != 0 {
		t.Errorf("IPv6 mates = %v", got[:n])
	}
}
