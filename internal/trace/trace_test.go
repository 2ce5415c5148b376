package trace

import (
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestBuilderLifecycle(t *testing.T) {
	b := Begin(7, 42, 9, 3, 2, 10)
	b.AddRedundant(4)
	b.AddCombined(5)
	b.AddReal(1)
	b.ObserveWait(3 * time.Millisecond)
	b.ObserveWait(9 * time.Millisecond)
	b.ObserveWait(time.Millisecond) // smaller: must not lower the max
	s := b.Finish()

	if s.Travel != 7 || s.Exec != 42 || s.Parent != 9 || s.Server != 3 || s.Step != 2 {
		t.Errorf("identity fields wrong: %+v", s)
	}
	if s.Frontier != 10 || s.Redundant != 4 || s.Combined != 5 || s.Real != 1 {
		t.Errorf("disposition counts wrong: %+v", s)
	}
	if s.Redundant+s.Combined+s.Real != s.Frontier {
		t.Errorf("span identity violated: %+v", s)
	}
	if s.QueueWaitNs != int64(9*time.Millisecond) {
		t.Errorf("QueueWaitNs = %d, want max of observations", s.QueueWaitNs)
	}
	if s.WallNs <= 0 {
		t.Errorf("WallNs = %d, want > 0", s.WallNs)
	}
	if s.Err != "" {
		t.Errorf("unexpected err %q", s.Err)
	}
}

func TestBuilderFailFirstWins(t *testing.T) {
	b := Begin(1, 1, 0, 0, 0, 1)
	b.Fail("first")
	b.Fail("second")
	if s := b.Finish(); s.Err != "first" {
		t.Errorf("Err = %q, want first recorded failure", s.Err)
	}
}

func TestNilBuilderIsSafe(t *testing.T) {
	var b *Builder
	b.AddRedundant(1)
	b.AddCombined(1)
	b.AddReal(1)
	b.ObserveWait(time.Second)
	b.Fail("x") // must not panic
}

func TestBuilderConcurrentAttribution(t *testing.T) {
	b := Begin(1, 1, 0, 0, 0, 64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				b.AddCombined(1)
				b.ObserveWait(time.Duration(i*8+j) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	s := b.Finish()
	if s.Combined != 64 {
		t.Errorf("Combined = %d, want 64", s.Combined)
	}
	if s.QueueWaitNs != int64(63*time.Microsecond) {
		t.Errorf("QueueWaitNs = %d, want the max observation", s.QueueWaitNs)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing[int](4)
	for i := 1; i <= 10; i++ {
		r.Record(i)
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, []int{7, 8, 9, 10}) {
		t.Errorf("Snapshot = %v, want newest 4 oldest-first", got)
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d", r.Len())
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d", r.Total())
	}
	if r.Evicted() != 6 {
		t.Errorf("Evicted = %d", r.Evicted())
	}
}

func TestRingPartiallyFull(t *testing.T) {
	r := NewRing[string](8)
	r.Record("a")
	r.Record("b")
	if got := r.Snapshot(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Snapshot = %v", got)
	}
	if r.Evicted() != 0 {
		t.Errorf("Evicted = %d, want 0", r.Evicted())
	}
}

func TestRingDegenerateCapacity(t *testing.T) {
	r := NewRing[int](0) // clamped to 1
	r.Record(1)
	r.Record(2)
	if got := r.Snapshot(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("Snapshot = %v", got)
	}
}

// TestRingNeverOutgrowsCapacity: the buffer grows lazily, but its backing
// array must stop at the configured capacity — append's own growth steps
// overshoot it (a full 8192-span ring sat in an array of 10 300).
func TestRingNeverOutgrowsCapacity(t *testing.T) {
	for _, capacity := range []int{1, 7, 512, 8192} {
		r := NewRing[Span](capacity)
		for i := 0; i < 2*capacity+3; i++ {
			r.Record(Span{Exec: uint64(i)})
			if cap(r.buf) > capacity {
				t.Fatalf("capacity %d: cap(buf) = %d after %d records", capacity, cap(r.buf), i+1)
			}
		}
		got := r.Snapshot()
		if len(got) != capacity || got[0].Exec != uint64(capacity+3) || got[capacity-1].Exec != uint64(2*capacity+2) {
			t.Fatalf("capacity %d: snapshot of %d spans from exec %d, want the newest %d in order",
				capacity, len(got), got[0].Exec, capacity)
		}
	}
}

func TestRingFilter(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 8; i++ {
		r.Record(i)
	}
	got := r.Filter(func(v int) bool { return v%2 == 0 })
	if !reflect.DeepEqual(got, []int{0, 2, 4, 6}) {
		t.Errorf("Filter = %v", got)
	}
}

func TestRingConcurrentRecord(t *testing.T) {
	r := NewRing[int](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(i)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Errorf("Total = %d, want 800", r.Total())
	}
	if r.Len() != 128 {
		t.Errorf("Len = %d, want capacity", r.Len())
	}
}

func TestAggregate(t *testing.T) {
	spans := []Span{
		{Travel: 1, Step: 0, Server: 0, Frontier: 3, Real: 3, QueueWaitNs: 5, WallNs: 10},
		{Travel: 1, Step: 0, Server: 0, Frontier: 2, Redundant: 1, Real: 1, QueueWaitNs: 9, WallNs: 30},
		{Travel: 1, Step: 0, Server: 1, Frontier: 4, Combined: 3, Real: 1, WallNs: 20},
		{Travel: 1, Step: 1, Server: 0, Frontier: 1, Real: 1, WallNs: 7, Err: "boom"},
	}
	got := Aggregate(spans)
	want := []StepStat{
		{Step: 0, Server: 0, Execs: 2, Frontier: 5, Redundant: 1, Real: 4, MaxQueueWaitNs: 9, WallNs: 40, MaxWallNs: 30},
		{Step: 0, Server: 1, Execs: 1, Frontier: 4, Combined: 3, Real: 1, WallNs: 20, MaxWallNs: 20},
		{Step: 1, Server: 0, Execs: 1, Frontier: 1, Real: 1, WallNs: 7, MaxWallNs: 7, Errs: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Aggregate:\n got %+v\nwant %+v", got, want)
	}
}

func TestMergeSteps(t *testing.T) {
	stats := []StepStat{
		{Step: 0, Server: 0, Execs: 2, Frontier: 5, Real: 4, Redundant: 1, MaxQueueWaitNs: 9, WallNs: 40, MaxWallNs: 30},
		{Step: 0, Server: 1, Execs: 1, Frontier: 4, Combined: 3, Real: 1, WallNs: 20, MaxWallNs: 20},
		{Step: 1, Server: 0, Execs: 1, Frontier: 1, Real: 1, WallNs: 7, MaxWallNs: 7},
	}
	got := MergeSteps(stats)
	want := []StepStat{
		{Step: 0, Server: -1, Execs: 3, Frontier: 9, Redundant: 1, Combined: 3, Real: 5, MaxQueueWaitNs: 9, WallNs: 60, MaxWallNs: 30},
		{Step: 1, Server: -1, Execs: 1, Frontier: 1, Real: 1, WallNs: 7, MaxWallNs: 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeSteps:\n got %+v\nwant %+v", got, want)
	}
}

func TestRecorderNilIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordSpan(Span{})
	r.RecordSummary(TravelSummary{})
	if got := r.Spans(0); got != nil {
		t.Errorf("Spans on nil = %v", got)
	}
	if got := r.Summaries(); got != nil {
		t.Errorf("Summaries on nil = %v", got)
	}
	if _, ok := r.Summary(1); ok {
		t.Error("Summary on nil reported a hit")
	}
	if st := r.Stats(); st != (RingStats{}) {
		t.Errorf("Stats on nil = %+v", st)
	}
}

func TestRecorderFiltersByTravel(t *testing.T) {
	r := NewRecorder(16)
	r.RecordSpan(Span{Travel: 1, Exec: 10})
	r.RecordSpan(Span{Travel: 2, Exec: 20})
	r.RecordSpan(Span{Travel: 1, Exec: 11})
	if got := r.Spans(1); len(got) != 2 || got[0].Exec != 10 || got[1].Exec != 11 {
		t.Errorf("Spans(1) = %+v", got)
	}
	if got := r.Spans(0); len(got) != 3 {
		t.Errorf("Spans(0) = %d spans, want all", len(got))
	}
	r.RecordSummary(TravelSummary{Travel: 1, Created: 3, Ended: 3})
	r.RecordSummary(TravelSummary{Travel: 1, Created: 5, Ended: 5})
	sum, ok := r.Summary(1)
	if !ok || sum.Created != 5 {
		t.Errorf("Summary(1) = %+v, %v — want the most recent", sum, ok)
	}
	st := r.Stats()
	if st.SpansRecorded != 3 || st.SpansBuffered != 3 || st.SpansEvicted != 0 || st.Summaries != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestPackedSpanRoundTrip: what the ring stores gives back every field of
// the Span that went in, the failure message included, in 96 pointer-free
// bytes.
func TestPackedSpanRoundTrip(t *testing.T) {
	if n := unsafe.Sizeof(packedSpan{}); n > 96 {
		t.Errorf("packedSpan is %d bytes, want <= 96", n)
	}
	want := Span{
		Travel: 1 << 60, Exec: 2<<48 | 77, Parent: 3<<48 | 5, Server: 2, Step: -1,
		Frontier: 1 << 20, Redundant: 11, Combined: 12, Real: 13,
		QueueWaitNs: 14, WallNs: 15, StartNs: time.Now().UnixNano(),
		FetchNs: 16, ScanNs: 18, DispatchNs: 19, Err: "disk on fire",
	}
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("test span leaves %s zero", v.Type().Field(i).Name)
		}
	}
	if got := pack(want).span(want.Err); got != want {
		t.Errorf("pack/span:\n got %+v\nwant %+v", got, want)
	}
	r := NewRecorder(4)
	r.RecordSpan(want)
	r.RecordSpan(Span{Travel: 1 << 60, Exec: 9})
	if got := r.Spans(1 << 60); len(got) != 2 || got[0] != want || got[1].Err != "" {
		t.Errorf("Spans = %+v", got)
	}
}

// TestRecorderEvictsErrWithSpan: a failure message lives beside the ring,
// and must leave with the span it belongs to.
func TestRecorderEvictsErrWithSpan(t *testing.T) {
	r := NewRecorder(2)
	r.RecordSpan(Span{Exec: 1, Err: "first"})
	r.RecordSpan(Span{Exec: 2})
	if got := r.Spans(0); got[0].Err != "first" || got[1].Err != "" {
		t.Fatalf("Spans = %+v", got)
	}
	r.RecordSpan(Span{Exec: 3, Err: "third"}) // evicts exec 1
	if len(r.errs) != 1 || r.errs[3] != "third" {
		t.Errorf("errs = %v, want only exec 3's message", r.errs)
	}
	r.RecordSpan(Span{Exec: 4})
	r.RecordSpan(Span{Exec: 5}) // evicts exec 3
	if len(r.errs) != 0 {
		t.Errorf("errs = %v, want empty once every failed span is evicted", r.errs)
	}
	if got := r.Spans(0); len(got) != 2 || got[0].Err != "" || got[1].Err != "" {
		t.Errorf("Spans = %+v", got)
	}
}

// BenchmarkRingRecord records spans into a full default-sized ring: the cost
// every terminated execution pays with tracing on.
func BenchmarkRingRecord(b *testing.B) {
	r := NewRing[Span](8192)
	for i := 0; i < 8192; i++ {
		r.Record(Span{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(Span{Exec: uint64(i)})
	}
}
