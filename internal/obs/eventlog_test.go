package obs

import (
	"sync"
	"testing"
)

func TestEventLogSequenceAndOrder(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 5; i++ {
		e := l.Append("enqueue", "j1", map[string]any{"i": i})
		if e.Seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d, want %d", i, e.Seq, i+1)
		}
	}
	evs := l.Since(0)
	if len(evs) != 5 {
		t.Fatalf("retained %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.Type != "enqueue" || e.Job != "j1" {
			t.Errorf("event %d = %+v, want seq %d", i, e, i+1)
		}
	}
	if got := l.Since(3); len(got) != 2 || got[0].Seq != 4 {
		t.Errorf("Since(3) = %+v, want seqs 4,5", got)
	}
	if l.Total() != 5 || l.Dropped() != 0 {
		t.Errorf("Total=%d Dropped=%d, want 5/0", l.Total(), l.Dropped())
	}
}

func TestEventLogRingEviction(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 10; i++ {
		l.Append("t", "", nil)
	}
	evs := l.Since(0)
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, want := range []uint64{8, 9, 10} {
		if evs[i].Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	if l.Dropped() != 7 {
		t.Errorf("Dropped = %d, want 7", l.Dropped())
	}
	if l.Total() != 10 {
		t.Errorf("Total = %d, want 10", l.Total())
	}
}

// TestEventLogConcurrentAppend drives parallel appenders and checks the
// retained window is a dense, strictly increasing suffix of the sequence
// space — the race detector covers the locking itself.
func TestEventLogConcurrentAppend(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	const writers, each = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Append("t", "j", nil)
			}
		}()
	}
	wg.Wait()
	if l.Total() != writers*each {
		t.Fatalf("Total = %d, want %d", l.Total(), writers*each)
	}
	evs := l.Since(0)
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained window not dense at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != writers*each {
		t.Errorf("newest seq = %d, want %d", evs[len(evs)-1].Seq, writers*each)
	}
}
