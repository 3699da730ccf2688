package alias

import (
	"net/netip"
	"strings"
	"testing"
)

// FuzzReadNodes holds ReadNodes to oracleReadNodes, the reader it
// replaced: both accept or both refuse, with the same error, and what
// they accept is the same partition, internally consistent. ReadNodes
// never panics.
func FuzzReadNodes(f *testing.F) {
	f.Add("node N1:  1.2.3.4 5.6.7.8\n")
	f.Add("# comment\n\nnode N2:  9.9.9.9\n")
	f.Add("node N1:\n")
	f.Add("node N1: 1.2.3.4 5.6.7.8\u0085 fe80::1%eth0\n")
	f.Fuzz(func(t *testing.T, in string) {
		sameNodes(t, in)
		s, err := ReadNodes(strings.NewReader(in))
		if err != nil {
			return
		}
		s.Groups(func(addrs []netip.Addr) bool {
			for _, a := range addrs {
				if !s.SameRouter(a, addrs[0]) {
					t.Fatal("partition inconsistent")
				}
			}
			return true
		})
	})
}
