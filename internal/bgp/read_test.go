package bgp

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// sameRoutes reads in with ReadRoutesStats and the oracle and fails
// unless both refuse with the same error or both accept the same routes
// and tallies. Every path ReadRoutesStats hands out must be cap-limited.
func sameRoutes(t *testing.T, in string) {
	t.Helper()
	got, gs, err := ReadRoutesStats(strings.NewReader(in))
	want, ws, werr := oracleReadRoutesStats(strings.NewReader(in))
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("ReadRoutesStats: %v; the oracle: %v", err, werr)
	}
	if !reflect.DeepEqual(got, want) || gs != ws {
		t.Fatalf("ReadRoutesStats and the oracle disagree:\n got %v %+v\nwant %v %+v", got, gs, want, ws)
	}
	for k := range got {
		if p := got[k].Path; cap(p) != len(p) {
			t.Fatalf("route %d: path of %d elements has capacity %d", k, len(p), cap(p))
		}
	}
}

// ribFixture is a fixed text RIB for the allocation ceiling and the
// benchmark: 2 000 /24s seen from three peers each, paths of two to six
// ASes, every hundredth ending in an AS_SET.
func ribFixture() string {
	var b strings.Builder
	b.WriteString("# fixture\n")
	for i := 0; i < 2000; i++ {
		for k, peer := range []int{3356, 174, 6939} {
			fmt.Fprintf(&b, "10.%d.%d.0/24|%d", i>>8, i&0xff, peer)
			for h := 1; h < 2+(i+k)%5; h++ {
				fmt.Fprintf(&b, " %d", 64512+(i*7+h*13+k)%1000)
			}
			if i%100 == 0 {
				b.WriteString(" {65002,65001}")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestReadRoutesMatchesOracle(t *testing.T) {
	for _, in := range []string{
		sampleRIB,
		ribFixture(),
		"8.0.0.0/8|3356 15169\n",
		"8.0.0.0/8|{{1,2}}} AS3 as4\n",
		"8.0.0.0/8|1 {2,,3}\n",
		"8.0.0.0/8|1 {}\n",
		"8.0.0.0/8|  \n",
		"8.0.0.0/8 3356\n",
	} {
		sameRoutes(t, in)
	}
}

// TestReadRoutesAllocs is the allocation ceiling of ReadRoutes on the
// fixture: each line parsed in the scanner's buffer, the paths cut from
// shared chunks, an allocation per AS_SET. It measured 102 allocations
// (with a string per line: 6 104; the reader before chunks: 18 261); the
// ceiling leaves about half again.
func TestReadRoutesAllocs(t *testing.T) {
	in := ribFixture()
	const ceiling = 150
	read := func(f func(io.Reader) ([]Route, ReadStats, error)) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := f(strings.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, old := read(ReadRoutesStats), read(oracleReadRoutesStats)
	t.Logf("ReadRoutes: %.0f allocations, the replaced reader %.0f", got, old)
	if got > ceiling {
		t.Errorf("ReadRoutes made %.0f allocations on the fixture, above its ceiling of %d", got, ceiling)
	}
	if old <= ceiling {
		t.Errorf("the replaced reader made %.0f allocations, within the ceiling of %d: the ceiling no longer tells them apart", old, ceiling)
	}
}

// benchRoutes keeps the compiler from discarding a read.
var benchRoutes []Route

func BenchmarkReadRoutes(b *testing.B) {
	in := ribFixture()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchRoutes, err = ReadRoutes(strings.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}
