package bgp

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadRoutes holds ReadRoutesStats to oracleReadRoutesStats, the
// reader it replaced: both accept or both refuse, with the same error,
// and what they accept is the same routes and tallies. The reader never
// panics, and whatever parses also survives a write/read round trip.
func FuzzReadRoutes(f *testing.F) {
	f.Add("8.0.0.0/8|3356 15169\n")
	f.Add("10.0.0.0/16|64496 {64500,64501}\n")
	f.Add("# comment\n\nbad line\n")
	f.Add("8.8.8.0/24|")
	f.Add("8.0.0.0/8|AS1\u0085{2,1}} 3\n")
	f.Fuzz(func(t *testing.T, in string) {
		sameRoutes(t, in)
		routes, err := ReadRoutes(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRoutes(&buf, routes); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		again, err := ReadRoutes(&buf)
		if err != nil {
			t.Fatalf("reread: %v", err)
		}
		if len(again) != len(routes) {
			t.Fatalf("round trip %d != %d", len(again), len(routes))
		}
	})
}
