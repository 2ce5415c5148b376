package metrics

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free log-linear bucket histogram for latency-style
// nonnegative int64 samples (nanoseconds by convention). Buckets are
// base-2 octaves split into 4 linear sub-buckets each, so any quantile
// read from a snapshot is within 25% relative error of the exact sample
// (plus the sub-bucket floor granularity below 4ns, where buckets are
// exact). Writers are striped across independent cache lines to keep
// concurrent Record calls from serializing on one counter word; Snapshot
// folds the stripes. The zero value is ready.
type Histogram struct {
	stripes [histStripes]histStripe
}

const (
	// histStripes is the writer-stripe count; a power of two so the
	// stripe pick is a mask, sized for the worker-pool parallelism the
	// engine actually runs (not per-CPU: snapshots walk every stripe).
	histStripes = 8
	// HistBuckets is the bucket-array length. Index 0-3 hold the exact
	// values 0-3; from there each octave [2^e, 2^(e+1)) contributes 4
	// sub-buckets at (e-1)*4 .. (e-1)*4+3. The maximum index a 63-bit
	// value can reach is (62)*4+3 = 251, so 256 covers every int64.
	HistBuckets = 256
)

// histStripe is one writer lane. The pad keeps adjacent stripes on
// separate cache lines so independent writers do not false-share.
type histStripe struct {
	counts [HistBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	_      [64]byte
}

// bucketIndex maps a sample to its bucket. Negative samples (clock
// retrogression under NTP steps) clamp to bucket 0 rather than corrupting
// the array.
func bucketIndex(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	n := uint64(v)
	e := bits.Len64(n) - 1
	return (e-1)*4 + int((n>>(uint(e)-2))&3)
}

// BucketUpper returns bucket i's inclusive upper bound. The sequence is
// strictly increasing, and every octave's last sub-bucket (i%4 == 3) ends
// exactly at 2^(e+1)-1 — which is why DefaultLadderNs bounds of the form
// (1<<k)-1 make cumulative bucket sums exact, not approximate.
func BucketUpper(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	e := uint(i/4 + 1)
	if e >= 63 {
		// Unreachable from Record (a positive int64 tops out at octave
		// 62), but the tail buckets exist; saturate instead of
		// overflowing the shift.
		return int64(^uint64(0) >> 1)
	}
	sub := int64(i % 4)
	return int64(1)<<e + (sub+1)<<(e-2) - 1
}

// Record adds one sample. Safe for any number of concurrent callers.
func (h *Histogram) Record(v int64) {
	s := &h.stripes[splitmix64(uint64(v))&(histStripes-1)]
	s.counts[bucketIndex(v)].Add(1)
	s.count.Add(1)
	if v < 0 {
		v = 0
	}
	s.sum.Add(v)
}

// splitmix64 is the SplitMix64 finalizer — enough mixing that samples
// landing in one bucket still spread across stripes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Snapshot folds the stripes into a point-in-time copy. Concurrent with
// Record: a racing sample may appear in Counts but not yet Count (or vice
// versa) by at most the number of in-flight writers, which is why the
// cross-check invariants are asserted only at quiescence.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.counts {
			s.Counts[b] += st.counts[b].Load()
		}
		s.Count += st.count.Load()
		s.Sum += st.sum.Load()
	}
	return s
}

// HistSnapshot is an immutable histogram copy: per-bucket counts plus the
// total sample count and sum (nanoseconds).
type HistSnapshot struct {
	Counts [HistBuckets]uint64
	Count  uint64
	Sum    int64
}

// Merge returns the bucket-wise sum of two snapshots — how per-server
// histograms aggregate into a cluster distribution without losing
// quantile fidelity (identical bucket boundaries everywhere).
func (a HistSnapshot) Merge(b HistSnapshot) HistSnapshot {
	out := a
	for i := range b.Counts {
		out.Counts[i] += b.Counts[i]
	}
	out.Count += b.Count
	out.Sum += b.Sum
	return out
}

// CumulativeLE counts samples in buckets whose upper bound is <= bound —
// the `le` semantics of a Prometheus cumulative bucket. Exact when bound
// is itself a bucket upper bound (every DefaultLadderNs entry is).
func (a HistSnapshot) CumulativeLE(bound int64) uint64 {
	var cum uint64
	for i, c := range a.Counts {
		if BucketUpper(i) > bound {
			break
		}
		cum += c
	}
	return cum
}

// DefaultLadderNs is the exposition bucket ladder: (1<<k)-1 nanoseconds
// for even k from 10 to 36, spanning ~1µs to ~68.7s in 4x steps. Each
// bound coincides exactly with a native bucket's upper edge, so the
// cumulative counts served at these bounds are exact, not interpolated.
var DefaultLadderNs = func() []int64 {
	var out []int64
	for k := uint(10); k <= 36; k += 2 {
		out = append(out, int64(1)<<k-1)
	}
	return out
}()
