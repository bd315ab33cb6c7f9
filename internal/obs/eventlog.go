package obs

import (
	"sync"
	"time"
)

// LogEvent is one structured entry in an EventLog: a typed, timestamped
// fact ("enqueue", "claim", "stage-commit", ...) about a subject (a job
// ID, usually), with a monotonically increasing sequence number assigned
// at append time. Sequence numbers start at 1 and never repeat within one
// EventLog, so consumers can totally order events from concurrent
// emitters and detect gaps after ring eviction.
type LogEvent struct {
	Seq   uint64         `json:"seq"`
	Time  time.Time      `json:"time"`
	Type  string         `json:"type"`
	Job   string         `json:"job,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// EventLog is a bounded, concurrency-safe ring of LogEvents. Appends
// never block and never grow memory past the configured capacity: once
// full, the oldest event is evicted (Dropped counts how many).
type EventLog struct {
	mu   sync.Mutex
	buf  []LogEvent
	head int    // index of the oldest retained event
	n    int    // retained count
	next uint64 // sequence number of the next append (starts at 1)
}

// NewEventLog returns an event log retaining at most capacity events
// (minimum 1; a non-positive capacity gets a default of 1024).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{buf: make([]LogEvent, capacity), next: 1}
}

// Append records one event and returns it with its assigned sequence
// number and timestamp. The attrs map is retained as-is and must not be
// mutated afterwards.
func (l *EventLog) Append(typ, job string, attrs map[string]any) LogEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := LogEvent{Seq: l.next, Time: time.Now().UTC(), Type: typ, Job: job, Attrs: attrs}
	l.next++
	if l.n == len(l.buf) {
		l.buf[l.head] = e
		l.head = (l.head + 1) % len(l.buf)
	} else {
		l.buf[(l.head+l.n)%len(l.buf)] = e
		l.n++
	}
	return e
}

// Since returns the retained events with Seq > after, oldest first.
func (l *EventLog) Since(after uint64) []LogEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []LogEvent
	for i := 0; i < l.n; i++ {
		e := l.buf[(l.head+i)%len(l.buf)]
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out
}

// Total returns how many events were ever appended.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Dropped returns how many appended events the ring has evicted.
func (l *EventLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1 - uint64(l.n)
}
