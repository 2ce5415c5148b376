package events

import (
	"sync"
	"testing"
)

func TestJournalRecordAndOrder(t *testing.T) {
	j := NewJournal(3, 8)
	j.Record(Event{Type: SuspicionUp, Peer: 1, Part: -1})
	j.Record(Event{Type: Promotion, Part: 2, Peer: -1, Epoch: 5})
	got := j.Events()
	if len(got) != 2 {
		t.Fatalf("Events() = %d entries, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("seqs = %d,%d, want 1,2", got[0].Seq, got[1].Seq)
	}
	if got[0].Server != 3 || got[1].Server != 3 {
		t.Fatalf("server stamp = %d,%d, want 3", got[0].Server, got[1].Server)
	}
	if got[0].TimeUnixNano == 0 || got[1].TimeUnixNano < got[0].TimeUnixNano {
		t.Fatalf("time stamps not monotone: %d then %d", got[0].TimeUnixNano, got[1].TimeUnixNano)
	}
	if got[1].Type != Promotion || got[1].Epoch != 5 {
		t.Fatalf("second event = %+v", got[1])
	}
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(0, 4)
	for i := 0; i < 10; i++ {
		j.Record(Event{Type: EpochBump, Part: i, Peer: -1})
	}
	got := j.Events()
	if len(got) != 4 {
		t.Fatalf("Events() = %d entries, want cap 4", len(got))
	}
	// Oldest six evicted: remaining are parts 6..9 with seqs 7..10.
	for i, e := range got {
		if e.Part != 6+i || e.Seq != uint64(7+i) {
			t.Fatalf("entry %d = part %d seq %d, want part %d seq %d", i, e.Part, e.Seq, 6+i, 7+i)
		}
	}
	if j.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", j.Dropped())
	}
}

func TestJournalBackpressureCoalesces(t *testing.T) {
	j := NewJournal(0, 8)
	for i := 0; i < 5; i++ {
		j.Record(Event{Type: Backpressure, Part: 1, Peer: -1})
	}
	j.Record(Event{Type: Backpressure, Part: 2, Peer: -1}) // different partition: new entry
	got := j.Events()
	if len(got) != 2 {
		t.Fatalf("Events() = %d entries, want 2 coalesced", len(got))
	}
	if got[0].Count != 5 || got[0].Part != 1 {
		t.Fatalf("burst entry = %+v, want count 5 on part 1", got[0])
	}
	if got[1].Count != 1 || got[1].Part != 2 {
		t.Fatalf("second entry = %+v", got[1])
	}
}

// TestStressEventJournalConcurrent hammers Record/Events under the race
// detector (`make stress` picks TestStress* up by name convention).
func TestStressEventJournalConcurrent(t *testing.T) {
	j := NewJournal(0, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				j.Record(Event{Type: EpochBump, Part: w, Peer: -1, Epoch: uint64(i)})
				if i%64 == 0 {
					_ = j.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	got := j.Events()
	if len(got) != 64 {
		t.Fatalf("Events() = %d, want full ring 64", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
	if total := uint64(len(got)) + j.Dropped(); total != 8000 {
		t.Fatalf("retained+dropped = %d, want 8000", total)
	}
}
