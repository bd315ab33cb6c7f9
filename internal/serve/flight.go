package serve

import "repro/internal/obs"

// The flight-recorder event vocabulary. Every scheduling decision that
// moves a job through its lifecycle emits exactly one of these, so the
// global log (and the per-job slice persisted in the record) replays the
// full history: when the job queued, which devices claimed it, when it
// was asked to drain, and how each attempt ended.
const (
	// EventEnqueue: the job entered the fleet queue (fresh submission or
	// crash recovery). Attrs: lane, demandBytes.
	EventEnqueue = "enqueue"
	// EventClaim: the placement pass took the job off the queue and leased
	// its devices. Attrs: devices, waitMs, lane, attempt.
	EventClaim = "claim"
	// EventPreemptRequest: the scheduler asked the running attempt to
	// drain at its next stage commit. Attrs: device+needBytes for policy
	// preemptions, operator=true for the admin endpoint.
	EventPreemptRequest = "preempt-request"
	// EventDrain: the attempt gave its devices back without finishing —
	// voluntarily at a stage commit (reason "preempt", with drainMs) or
	// because the server shut down (reason "shutdown").
	EventDrain = "drain"
	// EventRequeue: the drained job re-entered its lane at the head.
	// Attrs: reason.
	EventRequeue = "requeue"
	// EventShardPlace: a Shards>1 claim placed its shards. Attrs: devices.
	EventShardPlace = "shard-place"
	// EventStageCommit: the run committed one pipeline stage. Attrs:
	// stage (and node for sharded jobs).
	EventStageCommit = "stage-commit"
	// EventTerminal: the job reached succeeded/failed/canceled. Attrs:
	// outcome, attempts, error (and stack, when the run panicked).
	EventTerminal = "terminal"
)

// maxJobRecordEvents bounds the event slice persisted inside each job
// record; Record.TotalEvents keeps counting past it.
const maxJobRecordEvents = 512

// defaultFlightEvents is the global log's capacity when none is given.
const defaultFlightEvents = 4096

// FlightRecorder is the scheduler's audit channel: a bounded global event
// log and a copy of each event inside the owning job's record.
type FlightRecorder struct {
	events *obs.EventLog
}

// NewFlightRecorder builds a recorder whose global log retains capacity
// events (defaultFlightEvents when capacity is not positive).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightEvents
	}
	return &FlightRecorder{events: obs.NewEventLog(capacity)}
}

// Log returns the global event log.
func (f *FlightRecorder) Log() *obs.EventLog { return f.events }

// Emit appends one lifecycle event to the global log and mirrors it into
// the job's record (bounded at maxJobRecordEvents; TotalEvents counts
// every emission). The event's sequence number totally orders it against
// all concurrent scheduler activity.
func (f *FlightRecorder) Emit(j *Job, typ string, attrs map[string]any) {
	e := f.events.Append(typ, j.ID(), attrs)
	j.Update(func(r *Record) {
		r.TotalEvents++
		if len(r.Events) >= maxJobRecordEvents {
			r.Events = r.Events[1:]
		}
		r.Events = append(r.Events, e)
	})
}
