package mrt

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRead holds Read to oracleRead, the reader it replaced, on corrupted
// dumps: both accept or both refuse, with the same error, and what they
// accept is the same routes. Read never panics, and every path it hands
// out is cap-limited.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	routes, _ := bgpRoutes()
	_ = Write(&buf, routes)
	f.Add(buf.Bytes())
	f.Add(peerPrependDump(f))
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := Read(bytes.NewReader(in))
		want, werr := oracleRead(bytes.NewReader(in))
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("Read: %v; the oracle: %v", err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Read and the oracle disagree:\n got %v\nwant %v", got, want)
		}
		for k := range got {
			if p := got[k].Path; cap(p) != len(p) {
				t.Fatalf("route %d: path of %d elements has capacity %d", k, len(p), cap(p))
			}
		}
	})
}
