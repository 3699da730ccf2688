package topo

import (
	"math"
	"math/rand"
	"testing"
)

// lazyMatches draws n values from want (math/rand's own source) and
// got (a lazySource behind a rand.Rand), both seeded with seed, through
// an interleaving of the methods the simulator calls that op chooses,
// and re-seeds both with seed once midway. It reports the first draw
// at which the two differ, or -1.
func lazyMatches(seed int64, n int, got, op *rand.Rand) int {
	want := rand.New(rand.NewSource(seed))
	got.Seed(seed)
	reseed := n / 2
	for d := 0; d < n; d++ {
		if d == reseed && op.Intn(2) == 0 {
			want.Seed(seed)
			got.Seed(seed)
		}
		same := true
		switch op.Intn(6) {
		case 0:
			same = want.Uint64() == got.Uint64()
		case 1:
			same = want.Int63() == got.Int63()
		case 2:
			k := 1 + op.Intn(1000)
			same = want.Intn(k) == got.Intn(k)
		case 3:
			k := 1 << op.Intn(40) // powers of two and the Int63n path
			same = want.Intn(k) == got.Intn(k)
		case 4:
			same = want.Float64() == got.Float64()
		case 5:
			k := op.Intn(12)
			a, b := make([]int, k), make([]int, k)
			for i := range a {
				a[i], b[i] = i, i
			}
			want.Shuffle(k, func(i, j int) { a[i], a[j] = a[j], a[i] })
			got.Shuffle(k, func(i, j int) { b[i], b[j] = b[j], b[i] })
			for i := range a {
				same = same && a[i] == b[i]
			}
		}
		if !same {
			return d
		}
	}
	return -1
}

// TestLazySourceMatchesMathRand holds lazySource to math/rand's source
// draw for draw: edge seeds (0, ±1, multiples of the modulus, the int64
// extremes, the value 0 is replaced by) and seeded random ones, up to
// 2 000 draws each — past both lags' wraps — through one generator
// re-seeded from seed to seed, as the campaign uses it.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lfMod, -lfMod, 2 * lfMod, math.MinInt64, math.MaxInt64, 89482311}
	op := rand.New(rand.NewSource(42))
	for len(seeds) < 3009 {
		seeds = append(seeds, int64(op.Uint64()))
	}
	got := newProbeRNG()
	for i, seed := range seeds {
		n := 2000
		if i >= 9 {
			n = 1 + op.Intn(2000)
		}
		if d := lazyMatches(seed, n, got, op); d >= 0 {
			t.Fatalf("seed %d: draw %d differs from math/rand's", seed, d)
		}
	}
}

// BenchmarkProbeSeed times what probe pays per (VP, target) pair before
// tracing: a re-seed and 19 Float64 draws, the mean pair of a small
// campaign, for the campaign's lazy source and for math/rand's own.
func BenchmarkProbeSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		rng  *rand.Rand
	}{
		{"lazy", newProbeRNG()},
		{"math-rand", rand.New(rand.NewSource(0))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				c.rng.Seed(int64(i) * 0x5851f42d4c957f2d)
				for d := 0; d < 19; d++ {
					sink += c.rng.Float64()
				}
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
