package alias

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// oracleReadNodes is ReadNodes as it was before it walked each line's
// fields in place: strings.Fields per line and a fresh address slice per
// node. The differential tests hold ReadNodes to it.
func oracleReadNodes(r io.Reader) (*Sets, error) {
	s := NewSets()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest, ok := strings.CutPrefix(line, "node ")
		if !ok {
			return nil, fmt.Errorf("alias: line %d: expected 'node' record", lineno)
		}
		_, addrPart, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("alias: line %d: missing ':' after node id", lineno)
		}
		fields := strings.Fields(addrPart)
		addrs := make([]netip.Addr, 0, len(fields))
		for _, f := range fields {
			a, err := netip.ParseAddr(f)
			if err != nil {
				return nil, fmt.Errorf("alias: line %d: %w", lineno, err)
			}
			addrs = append(addrs, a)
		}
		if len(addrs) > 0 {
			s.Add(addrs...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("alias: read: %w", err)
	}
	return s, nil
}

// groupsOf lists s's groups in Groups' order, each copied.
func groupsOf(s *Sets) [][]netip.Addr {
	var out [][]netip.Addr
	s.Groups(func(addrs []netip.Addr) bool {
		out = append(out, append([]netip.Addr(nil), addrs...))
		return true
	})
	return out
}

// sameNodes reads in with ReadNodes and the oracle and fails unless both
// refuse with the same error or both accept the same partition.
func sameNodes(t *testing.T, in string) {
	t.Helper()
	got, err := ReadNodes(strings.NewReader(in))
	want, werr := oracleReadNodes(strings.NewReader(in))
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("ReadNodes: %v; the oracle: %v", err, werr)
	}
	if err == nil && !reflect.DeepEqual(groupsOf(got), groupsOf(want)) {
		t.Fatalf("ReadNodes and the oracle disagree:\n got %v\nwant %v", groupsOf(got), groupsOf(want))
	}
}

// nodesFixture is a fixed nodes file for the allocation ceiling and the
// benchmark: 3 000 nodes of one to four IPv4 addresses, every fiftieth
// naming an address of the node before it, so groups merge.
func nodesFixture() string {
	var b strings.Builder
	b.WriteString("# format: node <id>:  <addr> <addr> ...\n")
	for n := 0; n < 3000; n++ {
		fmt.Fprintf(&b, "node N%d: ", n+1)
		for k := 0; k <= n%4; k++ {
			fmt.Fprintf(&b, " 10.%d.%d.%d", n>>8, n&0xff, k+1)
		}
		if n%50 == 49 {
			fmt.Fprintf(&b, " 10.%d.%d.1", (n-1)>>8, (n-1)&0xff)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestReadNodesMatchesOracle(t *testing.T) {
	for _, in := range []string{
		nodesFixture(),
		"node N1:  1.2.3.4 5.6.7.8\nnode N2: 5.6.7.8 9.9.9.9\n",
		"node N1:\tfe80::1 2001:db8::1\n# c\n\nnode N2:  1.2.3.4\n",
		"node N1: 1.2.3.4 1.2.3.4x\n",
		"nod N1: 1.2.3.4\n",
	} {
		sameNodes(t, in)
	}
}

// TestReadNodesAllocs is the allocation ceiling of ReadNodes on the
// fixture: no string or slice per line, and groups cut from shared
// chunks. It measured 233 allocations (3 234 with a string per line, the
// reader before that 15 788); the ceiling leaves about 10 %.
func TestReadNodesAllocs(t *testing.T) {
	in := nodesFixture()
	const ceiling = 256
	read := func(f func(io.Reader) (*Sets, error)) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := f(strings.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, old := read(ReadNodes), read(oracleReadNodes)
	t.Logf("ReadNodes: %.0f allocations, the replaced reader %.0f", got, old)
	if got > ceiling {
		t.Errorf("ReadNodes made %.0f allocations on the fixture, above its ceiling of %d", got, ceiling)
	}
	if old <= ceiling {
		t.Errorf("the replaced reader made %.0f allocations, within the ceiling of %d: the ceiling no longer tells them apart", old, ceiling)
	}
}

func BenchmarkReadNodes(b *testing.B) {
	in := []byte(nodesFixture())
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSets, err = ReadNodes(bytes.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSets keeps the compiler from discarding a read.
var benchSets *Sets
