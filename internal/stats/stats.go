// Package stats provides phase timing, peak-memory tracking, and the
// human-readable formatting used by the evaluation harness to print
// paper-style tables (e.g. "2h 23m 55s" phase rows in Tables II/III).
package stats

import (
	"fmt"
	"sync/atomic"
	"time"
)

// MemTracker tracks the current and peak size of a logical memory pool
// (host buffers or device allocations). It is safe for concurrent use.
type MemTracker struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Add records an allocation of n bytes (n may be negative for a release).
func (m *MemTracker) Add(n int64) {
	cur := m.cur.Add(n)
	for {
		peak := m.peak.Load()
		if cur <= peak || m.peak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// Release records freeing n bytes.
func (m *MemTracker) Release(n int64) { m.Add(-n) }

// Current returns the current tracked size.
func (m *MemTracker) Current() int64 { return m.cur.Load() }

// Peak returns the high-water mark.
func (m *MemTracker) Peak() int64 { return m.peak.Load() }

// ResetPeak sets the peak back to the current level, so per-phase peaks can
// be measured independently.
func (m *MemTracker) ResetPeak() { m.peak.Store(m.cur.Load()) }

// PhaseStats summarizes one pipeline phase for the evaluation tables.
type PhaseStats struct {
	Name       string
	Wall       time.Duration // measured wall-clock time
	Modeled    time.Duration // analytic time under the hardware profile
	PeakHost   int64         // peak host-memory bytes during the phase
	PeakDevice int64         // peak device-memory bytes during the phase
	DiskRead   int64         // bytes read from disk during the phase
	DiskWrite  int64         // bytes written to disk during the phase
	NetBytes   int64         // bytes crossing the network during the phase
	PCIeBytes  int64         // bytes over PCIe during the phase
	DeviceOps  int64         // device compute operations during the phase
	// GraphHostPeak is the peak host-memory bytes attributable to the
	// graph representation itself (builder + adjacency structure) during
	// the phase — the quantity the backend choice moves, reported
	// separately from PeakHost so representation wins are visible next
	// to sort-buffer noise. Both drivers set it: the single-node pipeline
	// from its node, a cluster as the largest node's (the master's
	// serialized reduce folded into Reduce).
	GraphHostPeak int64
	// OverlapSaved is the modeled time hidden by stream overlap during the
	// phase; Modeled already has it subtracted (Modeled + OverlapSaved is
	// the additive no-overlap figure).
	OverlapSaved time.Duration
}

// String renders a single-line summary.
func (p PhaseStats) String() string {
	return fmt.Sprintf("%-9s wall=%-12s modeled=%-12s hostPeak=%-9s graphPeak=%-9s devPeak=%-9s diskR=%-9s diskW=%-9s net=%-9s pcie=%-9s devOps=%s",
		p.Name, FormatDuration(p.Wall), FormatDuration(p.Modeled),
		FormatBytes(p.PeakHost), FormatBytes(p.GraphHostPeak),
		FormatBytes(p.PeakDevice),
		FormatBytes(p.DiskRead), FormatBytes(p.DiskWrite),
		FormatBytes(p.NetBytes), FormatBytes(p.PCIeBytes),
		FormatCount(p.DeviceOps))
}

// Timer measures a phase's wall time.
type Timer struct{ start time.Time }

// StartTimer begins timing.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns time since the timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }

// FormatDuration renders a duration in the paper's table style:
// "16h 21m 9s", "9m 36s", "25s", "1.2ms".
func FormatDuration(d time.Duration) string {
	if d < 0 {
		return "-" + FormatDuration(-d)
	}
	if d < time.Second {
		return d.Round(time.Microsecond).String()
	}
	d = d.Round(time.Second)
	h := d / time.Hour
	m := (d % time.Hour) / time.Minute
	s := (d % time.Minute) / time.Second
	switch {
	case h > 0:
		return fmt.Sprintf("%dh %dm %ds", h, m, s)
	case m > 0:
		return fmt.Sprintf("%dm %ds", m, s)
	default:
		return fmt.Sprintf("%ds", s)
	}
}

// FormatBytes renders a byte count with a binary-scaled unit.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < 0 {
		return "-" + FormatBytes(-n)
	}
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit && exp < 4; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(n)/float64(div), "KMGTP"[exp])
}

// FormatCount renders a large count with thousands separators, matching
// the dataset table in the paper (e.g. "1,247,518,392").
func FormatCount(n int64) string {
	if n < 0 {
		return "-" + FormatCount(-n)
	}
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	out := make([]byte, 0, len(s)+len(s)/3)
	lead := len(s) % 3
	if lead > 0 {
		out = append(out, s[:lead]...)
	}
	for i := lead; i < len(s); i += 3 {
		if len(out) > 0 {
			out = append(out, ',')
		}
		out = append(out, s[i:i+3]...)
	}
	return string(out)
}
