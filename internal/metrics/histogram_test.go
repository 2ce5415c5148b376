package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must land back in that bucket, and the
	// bound sequence must be strictly increasing until it saturates.
	prev := int64(-1)
	for i := 0; i < HistBuckets; i++ {
		up := BucketUpper(i)
		if up <= prev && up != math.MaxInt64 {
			t.Fatalf("bucket %d upper %d not increasing (prev %d)", i, up, prev)
		}
		prev = up
		if up == math.MaxInt64 {
			continue // saturated tail, unreachable from Record
		}
		if got := bucketIndex(up); got != i {
			t.Fatalf("BucketUpper(%d) = %d maps back to bucket %d", i, up, got)
		}
		if got := bucketIndex(up + 1); got != i+1 {
			t.Fatalf("upper+1 of bucket %d maps to %d, want %d", i, got, i+1)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1000, -50} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("Count = %d, want 8", s.Count)
	}
	if s.Sum != 0+1+2+3+4+100+1000 { // -50 clamps to 0 in the sum
		t.Fatalf("Sum = %d", s.Sum)
	}
	// The negative sample clamps into bucket 0 alongside the real zero.
	if s.Counts[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2 (zero + clamped negative)", s.Counts[0])
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != Count %d", total, s.Count)
	}
}

func TestHistogramMergeAndCumulative(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 100; i++ {
		a.Record(i)
		b.Record(i * 1000)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 200 {
		t.Fatalf("merged Count = %d, want 200", m.Count)
	}
	if m.Sum != a.Snapshot().Sum+b.Snapshot().Sum {
		t.Fatalf("merged Sum = %d", m.Sum)
	}
	// CumulativeLE at a ladder bound is exact: (1<<10)-1 = 1023 covers
	// all 100 of a's samples (0..99) and b's 0 and 1000 — 102 exactly.
	if got := m.CumulativeLE(DefaultLadderNs[0]); got != 102 {
		t.Fatalf("CumulativeLE(1023) = %d, want 102", got)
	}
	// Monotone over the ladder, ending at the full count.
	var prev uint64
	for _, bound := range DefaultLadderNs {
		c := m.CumulativeLE(bound)
		if c < prev {
			t.Fatalf("cumulative not monotone at le=%d: %d < %d", bound, c, prev)
		}
		prev = c
	}
	if prev != m.Count {
		t.Fatalf("cumulative at top ladder bound = %d, want full count %d", prev, m.Count)
	}
}

func TestHistogramLadderBoundsAreBucketEdges(t *testing.T) {
	// The exposition ladder must coincide with native bucket uppers; this
	// is what makes the served cumulative counts exact.
	for _, bound := range DefaultLadderNs {
		if got := BucketUpper(bucketIndex(bound)); got != bound {
			t.Fatalf("ladder bound %d is not a bucket upper (bucket tops at %d)", bound, got)
		}
	}
}

// TestStressHistogramConcurrent hammers concurrent Record/Snapshot/Merge
// under the race detector (picked up by `make stress` via the TestStress
// name convention). At the end — writers quiesced — the bucket sums,
// count and sum must account for every sample exactly.
func TestStressHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshotters: results are unused, the race detector and
	// the torn-read tolerance documented on Snapshot are the test.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				_ = s.Merge(s).CumulativeLE(1 << 20)
			}
		}()
	}
	var wrote sync.WaitGroup
	var wantSum int64
	var sumMu sync.Mutex
	for w := 0; w < writers; w++ {
		wrote.Add(1)
		go func(w int) {
			defer wrote.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var local int64
			for i := 0; i < perWriter; i++ {
				v := rng.Int63n(1 << 30)
				h.Record(v)
				local += v
			}
			sumMu.Lock()
			wantSum += local
			sumMu.Unlock()
		}(w)
	}
	wrote.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("Count = %d, want %d", s.Count, writers*perWriter)
	}
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != Count %d", total, s.Count)
	}
}
