// Package arena hands out many small slices from shared chunks. A reader
// that builds one slice per record — an AS path per RIB entry, an alias
// group per node, a destination set per interface of a Builder image —
// makes one allocation per chunk instead of one per slice, and so gives
// the garbage collector far fewer objects and cycles.
package arena

// chunkLen is how many elements a chunk holds, unless one slice needs
// more: enough that the chunks' own allocations are noise, few enough
// that the unused tail of the last one is too. Chunks start at
// firstChunk and double, so a slab that serves a few slices stays small.
const (
	firstChunk = 16
	chunkLen   = 1024
)

// Slab is the chunk the next slices are cut from. The zero value is an
// empty Slab ready to use. A slice keeps its whole chunk alive, so a Slab
// suits slices that live and die together.
type Slab[T any] struct {
	free []T
	next int // the length of the next chunk
}

// Take returns n zero elements (nil for none). The slice is cap-limited:
// an append to it moves it out of the chunk instead of writing into the
// slice cut after it.
func (s *Slab[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		s.next = min(max(2*s.next, firstChunk), chunkLen)
		s.free = make([]T, max(s.next, n))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}
