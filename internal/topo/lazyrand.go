package topo

import "math/rand"

// lazySource is a rand.Source64 that yields exactly the stream of
// math/rand's own source but seeds in O(1): each of the 607 words of
// its lagged Fibonacci register is computed on its first read after a
// Seed, so a probe's few dozen draws cost a few dozen words, not 607.
type lazySource struct {
	tap, feed int
	x0        uint64 // the normalised seed, in [1, lfMod)
	gen       uint64 // the current seeding; word i is live iff stamp[i] == gen
	stamp     [lfLen]uint64
	vec       [lfLen]uint64
}

const (
	lfLen = 607       // register length (math/rand's rngLen)
	lfTap = 273       // second lag (rngTap)
	lfMod = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime
	lfPre = 20        // Park–Miller steps discarded before word 0
)

var (
	// lfPowers[k] is 48271^k mod lfMod: Park–Miller step k from seed x
	// is x·lfPowers[k] mod lfMod.
	lfPowers [lfPre + 1 + 3*lfLen]uint64
	// lfCooked is the constant math/rand XORs into each seeded word.
	lfCooked [lfLen]uint64
)

func init() {
	lfPowers[0] = 1
	for k := 1; k < len(lfPowers); k++ {
		lfPowers[k] = lfPowers[k-1] * 48271 % lfMod
	}
	// Recover math/rand's register seeded from 1 out of its first 607
	// outputs: output k (from 1) is word (334−k) mod 607 plus word 607−k,
	// and replaces the first. The second is output k−273 for k > 273 and
	// an original word, recovered from output 334+k, for k ≤ 273. XORing
	// away seed 1's Park–Miller part leaves the cooked constants.
	src := rand.NewSource(1).(rand.Source64)
	var out [lfLen + 1]uint64
	for k := 1; k <= lfLen; k++ {
		out[k] = src.Uint64()
	}
	var vec [lfLen]uint64
	for k := lfTap + 1; k <= lfLen; k++ {
		vec[(2*lfLen-lfTap-k)%lfLen] = out[k] - out[k-lfTap]
	}
	for k := 1; k <= lfTap; k++ {
		vec[lfLen-lfTap-k] = out[k] - vec[lfLen-k]
	}
	for i := range vec {
		lfCooked[i] = vec[i] ^ parkMiller(1, i)
	}
}

// parkMiller is word i of the register seeded from x, cooked constant
// aside: Park–Miller steps 21+3i to 23+3i, combined as Seed combines them.
func parkMiller(x uint64, i int) uint64 {
	p := lfPowers[lfPre+1+3*i:]
	return mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
}

// mulMod returns a·b mod lfMod for a, b < lfMod, folding the 62-bit
// product on the Mersenne modulus instead of dividing.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lfMod + p>>31 // < 2^32
	p = p&lfMod + p>>31 // ≤ 2^31
	if p >= lfMod {
		p -= lfMod
	}
	return p
}

// Seed starts the stream rand.NewSource(seed) starts.
func (s *lazySource) Seed(seed int64) {
	if seed %= lfMod; seed < 0 {
		seed += lfMod
	}
	if seed == 0 {
		seed = 89482311 // math/rand's replacement for a zero seed
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, lfLen-lfTap
	s.gen++
}

// word returns register word i, computed on its first read since Seed.
func (s *lazySource) word(i int) uint64 {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		s.vec[i] = parkMiller(s.x0, i) ^ lfCooked[i]
	}
	return s.vec[i]
}

// Uint64 steps the register as math/rand's source does.
func (s *lazySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += lfLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += lfLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns Uint64's value with its top bit cleared.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
