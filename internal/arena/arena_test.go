package arena

import "testing"

// TestTakeIsolates: slices taken one after another share a chunk, and
// neither writing nor appending to one reaches the next.
func TestTakeIsolates(t *testing.T) {
	var s Slab[int]
	if s.Take(0) != nil {
		t.Error("Take(0) is not nil")
	}
	a, b := s.Take(3), s.Take(2)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("lengths %d/%d, capacities %d/%d; want 3/2 twice", len(a), len(b), cap(a), cap(b))
	}
	b[0], b[1] = 7, 8
	a = append(a, 1)
	a[0] = 9
	if b[0] != 7 || b[1] != 8 {
		t.Errorf("an append to one slice wrote into the next: %v", b)
	}
}

// TestTakeAllocates: chunks double from firstChunk to chunkLen and each
// serves many takes; a take larger than a chunk gets a chunk its size.
func TestTakeAllocates(t *testing.T) {
	var s Slab[int64]
	takes := 0
	for size := firstChunk; size <= chunkLen; size *= 2 {
		takes += size / 4
	}
	allocs := testing.AllocsPerRun(10, func() {
		s = Slab[int64]{}
		for i := 0; i < takes; i++ {
			s.Take(4)
		}
	})
	if want := 7.0; allocs != want { // 16, 32, …, 1024
		t.Errorf("%d takes of 4 made %.0f allocations, want %.0f", takes, allocs, want)
	}
	if big := s.Take(chunkLen + 1); len(big) != chunkLen+1 || cap(big) != chunkLen+1 {
		t.Errorf("a take beyond a chunk: length %d, capacity %d", len(big), cap(big))
	}
}
