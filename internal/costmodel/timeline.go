// Overlap-aware time accounting. The additive model in Counters.Time
// charges every tier sequentially; real GPU pipelines overlap disk reads,
// PCIe transfers, and kernel execution via CUDA streams. This file models
// that overlap: streamed code charges its work onto per-stream timelines
// (Line) inside a unit of work (Timeline), and the unit's modeled duration
// becomes the *makespan* over lines instead of the sum of charges. The
// difference — serial minus makespan — is the modeled overlap saving,
// accumulated in an OverlapLedger that the pipeline subtracts from the
// additive phase model.
//
// Two invariants keep the model honest and deterministic:
//
//   - A tier is a single engine. Charges against one tier never overlap
//     each other (tierAvail serializes them), so overlapping streams can
//     hide latency across tiers but never exceed any one tier's bandwidth.
//     The makespan is therefore always >= the busiest tier's total, and
//     the saving never exceeds what the hardware could physically hide.
//   - Within one Timeline each tier should be driven by a single line
//     (the streamed call sites follow this discipline). Then every span's
//     placement depends only on program order on its own line plus
//     explicit Wait dependencies, so modeled time is independent of
//     goroutine scheduling — the same determinism contract the meter has.
//     The sums are too, to the bit: floating-point addition is not
//     associative, so each line keeps its own serial and per-tier busy
//     totals, added in the program order of the one goroutine that
//     charges it, and a timeline adds its lines in creation order rather
//     than in the order an async executor's charges and its caller's
//     happen to arrive.
//
// Everything is nil-safe: a nil *OverlapLedger yields nil Timelines and
// Lines whose methods no-op, so code that models no placement runs the
// same streams and pays nothing for the model.
package costmodel

import "sync"

// Tier identifies one modeled hardware lane of a Profile.
type Tier int

const (
	TierDiskRead Tier = iota
	TierDiskWrite
	TierNet
	TierHostMem
	TierDeviceMem
	TierDeviceOps
	TierPCIe
	numTiers
)

// NumTiers is the number of modeled tiers.
const NumTiers = int(numTiers)

func (t Tier) String() string {
	switch t {
	case TierDiskRead:
		return "disk_read"
	case TierDiskWrite:
		return "disk_write"
	case TierNet:
		return "net"
	case TierHostMem:
		return "host_mem"
	case TierDeviceMem:
		return "device_mem"
	case TierDeviceOps:
		return "device_ops"
	case TierPCIe:
		return "pcie"
	}
	return "unknown"
}

// tierRate returns the profile's throughput for a tier: bytes/second for
// the memory and I/O tiers, operations/second for TierDeviceOps — the same
// denominators Counters.Breakdown uses, so a single-line timeline
// reproduces the additive model exactly.
func (p Profile) tierRate(t Tier) float64 {
	switch t {
	case TierDiskRead:
		return p.DiskReadBps
	case TierDiskWrite:
		return p.DiskWriteBps
	case TierNet:
		return p.NetBps
	case TierHostMem:
		return p.HostMemBps
	case TierDeviceMem:
		return p.DeviceMemBps
	case TierDeviceOps:
		return p.DeviceOpsPerSec
	case TierPCIe:
		return p.PCIeBps
	}
	return 0
}

// OverlapLedger accumulates modeled overlap across units of work. One
// ledger serves a whole pipeline run; SortFile and Reduce calls each
// commit one Timeline into it. Units aggregate additively (unit makespans
// sum), which keeps the total independent of how many workers ran the
// units concurrently — the same worker-count determinism the meter
// guarantees.
type OverlapLedger struct {
	prof Profile

	mu         sync.Mutex
	serial     float64
	overlapped float64
	busy       [numTiers]float64
	units      int64
}

// NewOverlapLedger returns a ledger modeling overlap under profile p.
func NewOverlapLedger(p Profile) *OverlapLedger {
	return &OverlapLedger{prof: p}
}

// NewTimeline opens a timeline for one unit of streamed work. Returns nil
// (whose methods all no-op) on a nil ledger.
func (lg *OverlapLedger) NewTimeline() *Timeline {
	if lg == nil {
		return nil
	}
	return &Timeline{ledger: lg, prof: lg.prof}
}

// SerialSeconds returns the additive (no-overlap) seconds of all committed
// timelines.
func (lg *OverlapLedger) SerialSeconds() float64 {
	if lg == nil {
		return 0
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.serial
}

// OverlappedSeconds returns the summed makespans of all committed
// timelines.
func (lg *OverlapLedger) OverlappedSeconds() float64 {
	if lg == nil {
		return 0
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.overlapped
}

// SavedSeconds returns the modeled seconds hidden by overlap: the additive
// total minus the summed makespans. Never negative.
func (lg *OverlapLedger) SavedSeconds() float64 {
	if lg == nil {
		return 0
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.serial - lg.overlapped
}

// OverlapRatio returns saved/serial in [0, 1): the fraction of streamed
// modeled time hidden by overlap. Zero when nothing was streamed.
func (lg *OverlapLedger) OverlapRatio() float64 {
	if lg == nil {
		return 0
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.serial <= 0 {
		return 0
	}
	return (lg.serial - lg.overlapped) / lg.serial
}

// TierBusySeconds returns the total busy seconds charged against tier t
// across committed timelines.
func (lg *OverlapLedger) TierBusySeconds(t Tier) float64 {
	if lg == nil || t < 0 || t >= numTiers {
		return 0
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.busy[t]
}

// Units returns the number of committed timelines.
func (lg *OverlapLedger) Units() int64 {
	if lg == nil {
		return 0
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.units
}

func (lg *OverlapLedger) commit(serial, makespan float64, busy [numTiers]float64) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.serial += serial
	lg.overlapped += makespan
	for i := range busy {
		lg.busy[i] += busy[i]
	}
	lg.units++
}

// Timeline is the modeled schedule of one unit of streamed work (one
// external sort, one reduce). Lines are its parallel streams; charges on
// different lines may overlap in modeled time, charges against the same
// tier never do.
type Timeline struct {
	ledger *OverlapLedger
	prof   Profile

	mu        sync.Mutex
	tierAvail [numTiers]float64
	lines     []*Line
	committed bool
}

// Line opens a new modeled stream starting at time zero. Returns nil on a
// nil timeline.
func (tl *Timeline) Line(name string) *Line {
	if tl == nil {
		return nil
	}
	l := &Line{tl: tl, name: name}
	tl.mu.Lock()
	tl.lines = append(tl.lines, l)
	tl.mu.Unlock()
	return l
}

// Makespan returns the latest cursor over all lines: the unit's modeled
// duration with overlap.
func (tl *Timeline) Makespan() float64 {
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.makespanLocked()
}

func (tl *Timeline) makespanLocked() float64 {
	var m float64
	for _, l := range tl.lines {
		if l.cursor > m {
			m = l.cursor
		}
	}
	return m
}

// totalsLocked sums the lines' serial seconds and per-tier busy seconds
// in line creation order, so the sums do not depend on which goroutine
// charged first.
func (tl *Timeline) totalsLocked() (serial float64, busy [numTiers]float64) {
	for _, l := range tl.lines {
		serial += l.serial
		for i := range busy {
			busy[i] += l.busy[i]
		}
	}
	return serial, busy
}

// SerialSeconds returns the additive sum of every charge on the timeline.
func (tl *Timeline) SerialSeconds() float64 {
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	serial, _ := tl.totalsLocked()
	return serial
}

// SavedSeconds returns serial minus makespan for this unit so far.
func (tl *Timeline) SavedSeconds() float64 {
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	serial, _ := tl.totalsLocked()
	return serial - tl.makespanLocked()
}

// Commit folds the unit into its ledger. Idempotent; nil-safe. Call it
// once all streams of the unit have synced.
func (tl *Timeline) Commit() {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	if tl.committed {
		tl.mu.Unlock()
		return
	}
	tl.committed = true
	serial, busy := tl.totalsLocked()
	makespan := tl.makespanLocked()
	tl.mu.Unlock()
	tl.ledger.commit(serial, makespan, busy)
}

// Span is one modeled busy interval on a line.
type Span struct {
	Tier       Tier
	Start, End float64 // seconds from the unit's start
}

// Line is one modeled stream within a Timeline: an ordered sequence of
// charges, each starting no earlier than the previous charge on the line
// and no earlier than the tier's previous release. One goroutine at a
// time charges a line, in program order.
type Line struct {
	tl     *Timeline
	name   string
	cursor float64
	spans  []Span
	serial float64           // summed duration of the line's charges
	busy   [numTiers]float64 // the same, per tier
}

// Name returns the line's label.
func (l *Line) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// Charge schedules amount units of work (bytes, or ops for
// TierDeviceOps) on tier t at the earliest time both this line and the
// tier are free, advancing the line's cursor past it. It returns the
// modeled [start, end) interval. Nil-safe: a nil line returns zeros and
// records nothing.
func (l *Line) Charge(t Tier, amount int64) (start, end float64) {
	if l == nil {
		return 0, 0
	}
	tl := l.tl
	tl.mu.Lock()
	defer tl.mu.Unlock()
	dur := ratio(amount, tl.prof.tierRate(t))
	start = l.cursor
	if t >= 0 && t < numTiers && tl.tierAvail[t] > start {
		start = tl.tierAvail[t]
	}
	end = start + dur
	l.cursor = end
	if t >= 0 && t < numTiers {
		tl.tierAvail[t] = end
		l.busy[t] += dur
	}
	l.serial += dur
	if dur > 0 {
		l.spans = append(l.spans, Span{Tier: t, Start: start, End: end})
	}
	return start, end
}

// Wait delays the line's next charge to at least modeled time t: a
// cross-stream dependency (this line consumes something another line
// produces at t). Nil-safe.
func (l *Line) Wait(t float64) {
	if l == nil {
		return
	}
	l.tl.mu.Lock()
	if t > l.cursor {
		l.cursor = t
	}
	l.tl.mu.Unlock()
}

// Fork opens a new line in the same timeline starting at this line's
// current position — a nested burst of parallelism (e.g. the device
// chunk pipeline inside one host block) whose sub-streams must not be
// modeled as overlapping work that preceded them. Rejoin with
// l.Wait(fork.Cursor()). Nil-safe.
func (l *Line) Fork(name string) *Line {
	if l == nil {
		return nil
	}
	tl := l.tl
	tl.mu.Lock()
	nl := &Line{tl: tl, name: name, cursor: l.cursor}
	tl.lines = append(tl.lines, nl)
	tl.mu.Unlock()
	return nl
}

// Cursor returns the line's current modeled time.
func (l *Line) Cursor() float64 {
	if l == nil {
		return 0
	}
	l.tl.mu.Lock()
	defer l.tl.mu.Unlock()
	return l.cursor
}

// Spans returns a copy of the line's recorded busy intervals.
func (l *Line) Spans() []Span {
	if l == nil {
		return nil
	}
	l.tl.mu.Lock()
	defer l.tl.mu.Unlock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return out
}
