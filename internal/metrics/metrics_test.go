package metrics

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestCountersAndSnapshot(t *testing.T) {
	var s Server
	s.Add(Received, 10)
	s.Add(Redundant, 3)
	s.Add(Combined, 2)
	s.Add(RealIO, 5)
	s.Add(MsgsSent, 7)
	s.Add(Execs, 4)
	snap := s.Snapshot()
	want := Snapshot{Received: 10, Redundant: 3, Combined: 2, RealIO: 5, MsgsSent: 7, Execs: 4}
	if snap != want {
		t.Errorf("snapshot = %+v, want %+v", snap, want)
	}
	if !snap.Consistent() {
		t.Error("3+2+5 == 10 should be consistent")
	}
}

func TestInconsistentSnapshot(t *testing.T) {
	s := Snapshot{Received: 10, Redundant: 1, Combined: 1, RealIO: 1}
	if s.Consistent() {
		t.Error("3 != 10 should be inconsistent")
	}
}

func TestSubAndAdd(t *testing.T) {
	a := Snapshot{Received: 10, Redundant: 4, Combined: 3, RealIO: 3, MsgsSent: 8, Execs: 2}
	b := Snapshot{Received: 6, Redundant: 2, Combined: 2, RealIO: 2, MsgsSent: 5, Execs: 1}
	diff := a.Sub(b)
	if diff != (Snapshot{Received: 4, Redundant: 2, Combined: 1, RealIO: 1, MsgsSent: 3, Execs: 1}) {
		t.Errorf("Sub = %+v", diff)
	}
	if got := diff.Add(b); got != a {
		t.Errorf("Add(Sub) = %+v, want %+v", got, a)
	}
}

func TestSubAddInverseQuick(t *testing.T) {
	f := func(a1, a2, a3, b1, b2, b3 int16) bool {
		a := Snapshot{Received: int64(a1), Redundant: int64(a2), RealIO: int64(a3)}
		b := Snapshot{Received: int64(b1), Combined: int64(b2), MsgsSent: int64(b3)}
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExecutorMetrics(t *testing.T) {
	var s Server
	s.ObserveQueueDepth(5)
	s.ObserveQueueDepth(12)
	s.ObserveQueueDepth(3) // never lowers the peak
	s.AddQueueWait(100)
	s.AddQueueWait(300)
	s.Add(Rejected, 2)
	snap := s.Snapshot()
	if snap.QueueDepthPeak != 12 {
		t.Errorf("QueueDepthPeak = %d, want 12", snap.QueueDepthPeak)
	}
	if snap.QueueWaitNs != 400 || snap.QueueGroups != 2 {
		t.Errorf("wait = %d/%d groups, want 400/2", snap.QueueWaitNs, snap.QueueGroups)
	}
	if snap.Rejected != 2 {
		t.Errorf("Rejected = %d, want 2", snap.Rejected)
	}
}

func TestQueueDepthPeakGaugeSemantics(t *testing.T) {
	a := Snapshot{QueueDepthPeak: 7, QueueWaitNs: 50, QueueGroups: 5}
	b := Snapshot{QueueDepthPeak: 9, QueueWaitNs: 20, QueueGroups: 2}
	if got := a.Add(b).QueueDepthPeak; got != 9 {
		t.Errorf("Add peak = %d, want max 9", got)
	}
	if got := a.Sub(b).QueueDepthPeak; got != 7 {
		t.Errorf("Sub peak = %d, want receiver's 7", got)
	}
	if d := a.Sub(b); d.QueueWaitNs != 30 || d.QueueGroups != 3 {
		t.Errorf("Sub wait = %+v", d)
	}
}

func TestConcurrentAdds(t *testing.T) {
	var s Server
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Add(Received, 1)
				s.Add(RealIO, 1)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Received != 8000 || snap.RealIO != 8000 {
		t.Errorf("lost updates: %+v", snap)
	}
}

// TestFieldsCoverSnapshot enforces the Fields()/Snapshot correspondence by
// reflection: every Snapshot field must appear exactly once in the
// enumeration, each getter must read its own field, and names must be
// unique. A counter added to Snapshot without a Fields() entry fails here
// instead of silently missing the /metrics exposition.
func TestFieldsCoverSnapshot(t *testing.T) {
	fields := Fields()
	typ := reflect.TypeOf(Snapshot{})
	if len(fields) != typ.NumField() {
		t.Fatalf("Fields() has %d entries, Snapshot has %d fields", len(fields), typ.NumField())
	}
	names := make(map[string]bool)
	for i, f := range fields {
		if f.Name == "" || f.Help == "" {
			t.Errorf("field %d: empty name or help: %+v", i, f)
		}
		if names[f.Name] {
			t.Errorf("duplicate field name %q", f.Name)
		}
		names[f.Name] = true
		// Probe getter i with a snapshot where only struct field i is set:
		// the getter must read exactly that field.
		var snap Snapshot
		reflect.ValueOf(&snap).Elem().Field(i).SetInt(int64(1000 + i))
		if got := f.Get(snap); got != int64(1000+i) {
			t.Errorf("field %q (index %d) getter read %d, want %d — enumeration order must match Snapshot declaration order", f.Name, i, got, 1000+i)
		}
	}
}

// TestCombineRuleOfEveryRow sets one field in two snapshots and checks
// Sub and Add against that field's row: a counter takes the difference in
// Sub and the sum in Add, a gauge keeps the receiver's value in Sub, a Max
// row takes the larger value in Add, and no other field moves. The rules
// themselves are pinned by name, so a row whose flag flips fails too.
func TestCombineRuleOfEveryRow(t *testing.T) {
	gauges := map[string]bool{"queue_depth_peak": true, "repl_lag_bytes": true, "heap_alloc_bytes": true, "gc_pause_p95_ns": true}
	maxes := map[string]bool{"queue_depth_peak": true, "heap_alloc_bytes": true, "gc_cycles_total": true, "gc_pause_ns_total": true, "gc_pause_p95_ns": true}
	only := func(i int, v int64) (s Snapshot) {
		reflect.ValueOf(&s).Elem().Field(i).SetInt(v)
		return s
	}
	for i, f := range Fields() {
		if f.Gauge != gauges[f.Name] || f.Max != maxes[f.Name] {
			t.Errorf("%s: Gauge %v Max %v, want %v %v", f.Name, f.Gauge, f.Max, gauges[f.Name], maxes[f.Name])
		}
		wantSub, wantAdd := int64(7-9), int64(7+9)
		if f.Gauge {
			wantSub = 7
		}
		if f.Max {
			wantAdd = 9
		}
		a, b := only(i, 7), only(i, 9)
		if got := a.Sub(b); got != only(i, wantSub) {
			t.Errorf("%s: Sub = %+v, want only this field at %d", f.Name, got, wantSub)
		}
		if got := a.Add(b); got != only(i, wantAdd) {
			t.Errorf("%s: Add = %+v, want only this field at %d", f.Name, got, wantAdd)
		}
	}
}

// TestReadRuntimeOverlay exercises the GC gauge overlay: after a forced GC
// cycle the runtime must report at least one completed cycle, a live heap,
// and a p95 pause bounded by the cumulative pause time.
func TestReadRuntimeOverlay(t *testing.T) {
	runtime.GC()
	var s Snapshot
	ReadRuntime(&s)
	if s.NumGC < 1 {
		t.Errorf("NumGC = %d after runtime.GC()", s.NumGC)
	}
	if s.HeapAllocBytes <= 0 {
		t.Errorf("HeapAllocBytes = %d", s.HeapAllocBytes)
	}
	if s.GCPauseP95Ns < 0 || s.GCPauseP95Ns > s.GCPauseTotalNs {
		t.Errorf("p95 pause %dns outside [0, total %dns]", s.GCPauseP95Ns, s.GCPauseTotalNs)
	}
}

// TestRuntimeGaugeSemantics pins the aggregation rules for the runtime
// overlay: heap and p95 are gauges (Sub keeps the later value, Add takes
// the max — in-process clusters share one runtime), cycle and pause
// counters difference and max like the lag gauge's documented hybrid.
func TestRuntimeGaugeSemantics(t *testing.T) {
	a := Snapshot{HeapAllocBytes: 100, NumGC: 10, GCPauseTotalNs: 500, GCPauseP95Ns: 40}
	b := Snapshot{HeapAllocBytes: 300, NumGC: 4, GCPauseTotalNs: 200, GCPauseP95Ns: 90}
	d := a.Sub(b)
	if d.HeapAllocBytes != 100 || d.GCPauseP95Ns != 40 {
		t.Errorf("Sub gauges = %d/%d, want receiver's 100/40", d.HeapAllocBytes, d.GCPauseP95Ns)
	}
	if d.NumGC != 6 || d.GCPauseTotalNs != 300 {
		t.Errorf("Sub counters = %d/%d, want 6/300", d.NumGC, d.GCPauseTotalNs)
	}
	sum := a.Add(b)
	if sum.HeapAllocBytes != 300 || sum.NumGC != 10 || sum.GCPauseTotalNs != 500 || sum.GCPauseP95Ns != 90 {
		t.Errorf("Add = %+v, want field-wise max for runtime stats", sum)
	}
}

// BenchmarkServerAdd is the engine's per-group counter cost: parallel adds
// on the four counters every served group moves.
func BenchmarkServerAdd(b *testing.B) {
	var s Server
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Add(Received, 4)
			s.Add(Redundant, 1)
			s.Add(Combined, 1)
			s.Add(RealIO, 2)
		}
	})
}

// BenchmarkSnapshotSubAdd is the harness's cost to read a server: one
// Snapshot, then the delta from an earlier one summed into a total.
func BenchmarkSnapshotSubAdd(b *testing.B) {
	var s Server
	s.Add(Received, 10)
	before := s.Snapshot()
	var total Snapshot
	b.ReportAllocs()
	for range b.N {
		total = total.Add(s.Snapshot().Sub(before))
	}
	if total.Received != 0 {
		b.Fatal("Received moved without an add")
	}
}
