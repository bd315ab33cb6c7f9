// Package overlap implements the reduce phase (Section III-C, Algorithm
// 2): finding suffix-prefix matches between two fingerprint-sorted
// partition files.
//
// Two windows of at most M/2 pairs stream from the suffix and prefix
// lists. Each round the windows are clipped so that a fingerprint present
// in the suffix window cannot occur in any prefix window except the
// current one: both windows are resized to the lower bound of the smaller
// of their largest fingerprints (keys equal to the boundary stay buffered
// for the next round, since more occurrences may follow in the stream).
// The clipped windows are shipped to the device, where vectorized lower-
// and upper-bound searches yield per-suffix match counts, and one
// candidate edge is emitted per (suffix, prefix) fingerprint match.
//
// One practical extension over the paper: when a single fingerprint's run
// of duplicates fills a whole window (possible for extreme-coverage
// repeats) the lower-bound resize would empty both windows and Algorithm 2
// as published stalls. Those runs are handled exactly by a dedicated drain
// path that joins the key's complete suffix and prefix runs across window
// refills, at the cost of host memory proportional to the run length
// instead of the window size.
package overlap

import (
	"context"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config parameterizes a reduce pass.
type Config struct {
	Device      *gpu.Device
	Meter       *costmodel.Meter  // meters disk traffic; may be nil
	HostMem     *stats.MemTracker // accounts window buffers; may be nil
	WindowPairs int               // M/2: pairs per window
	Obs         *obs.Observer     // observability sink; may be nil

	// Overlap receives the modeled placement of the reduce's charges:
	// each reduce commits one timeline, on which the window prefetch
	// overlaps the bounds kernels. Nil models nothing; the reduce executes
	// the same way, with the same edges and counters, either way.
	Overlap *costmodel.OverlapLedger
}

// Emit receives one candidate edge: the read strand whose suffix matched
// (u) and the read strand whose prefix matched (v). Returning an error
// aborts the reduce.
type Emit func(u, v uint32) error

// ReducePaths streams the sorted suffix and prefix partition files and
// emits every fingerprint match. Both files must be sorted by fingerprint.
// Cancellation of ctx aborts between window rounds with ctx.Err().
func ReducePaths(ctx context.Context, cfg Config, sfxPath, pfxPath string, emit Emit) error {
	sr, err := kvio.NewReader(sfxPath, cfg.Meter)
	if err != nil {
		return err
	}
	defer sr.Close()
	pr, err := kvio.NewReader(pfxPath, cfg.Meter)
	if err != nil {
		return err
	}
	defer pr.Close()
	return Reduce(ctx, cfg, sr, pr, emit)
}

// Reduce is ReducePaths over already-open readers.
func Reduce(ctx context.Context, cfg Config, sfxReader, pfxReader *kvio.Reader, emit Emit) error {
	if cfg.WindowPairs < 1 {
		return fmt.Errorf("overlap: WindowPairs must be positive, got %d", cfg.WindowPairs)
	}
	// Candidate counting wraps emit: the counter is resolved once per
	// reduce and bumped per emission (nil-safe all the way down).
	candidates := cfg.Obs.Metrics().Counter("overlap.candidates")
	if candidates != nil {
		inner := emit
		emit = func(u, v uint32) error {
			candidates.Add(1)
			return inner(u, v)
		}
	}
	dev := cfg.Device
	// One modeled timeline per reduce: a single async I/O stream
	// prefetches both windows (one disk engine, charges serialized on the
	// disk-read tier) while the inline compute stream carries the device
	// pass.
	tl := cfg.Overlap.NewTimeline()
	defer tl.Commit()
	ioS := dev.NewStream("reduce-io", tl.Line("prefetch"), true)
	defer ioS.Close()
	cmp := dev.NewStream("reduce-compute", tl.Line("compute"), false)
	// A partition smaller than a window needs only partition-sized
	// buffers; the windows seen by the device are identical either way.
	// Each side holds its window and the spare its prefetch builds.
	sCap := kvio.ClampPairs(cfg.WindowPairs, sfxReader.Count())
	pCap := kvio.ClampPairs(cfg.WindowPairs, pfxReader.Count())
	if cfg.HostMem != nil {
		hostBytes := 2 * int64(sCap+pCap) * kvio.HostPairBytes
		cfg.HostMem.Add(hostBytes)
		defer cfg.HostMem.Release(hostBytes)
	}
	bufs := [4][]kv.Pair{kvio.GetPairs(sCap), kvio.GetPairs(sCap), kvio.GetPairs(pCap), kvio.GetPairs(pCap)}
	ws := kvio.NewWindow(sfxReader, bufs[0], bufs[1])
	wp := kvio.NewWindow(pfxReader, bufs[2], bufs[3])
	defer func() {
		// An early return can leave prefetch ops in flight; barrier the
		// I/O stream before the window buffers go back to the pool.
		ioS.Sync()
		for _, b := range bufs {
			kvio.PutPairs(b)
		}
	}()

	ws.Advance(ioS, 0)
	wp.Advance(ioS, 0)
	var lb, ub, diff []int32
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		syncErr := ioS.Sync()
		ws.Adopt()
		wp.Adopt()
		if syncErr != nil {
			return syncErr
		}
		// The round consumes data the I/O stream produced. The fills read
		// only after a synchronous consume (the boundary branch and
		// drainKey); an adopted window is already full.
		cmp.WaitModeled(ioS.ModeledCursor())
		if err := ws.Fill(); err != nil {
			return err
		}
		if err := wp.Fill(); err != nil {
			return err
		}
		s, p := ws.Pairs(), wp.Pairs()
		if len(s) == 0 || len(p) == 0 {
			break
		}
		// Clip both windows at the lower bound of the smaller of the two
		// largest fingerprints (lines 5-7). Pairs carrying the boundary
		// key stay buffered, because later window fills may bring more
		// occurrences of that key on either stream.
		f := kv.Min(s[len(s)-1].Key, p[len(p)-1].Key)
		cs := s[:kv.LowerBound(s, f)]
		cp := p[:kv.LowerBound(p, f)]
		if len(cs) == 0 && len(cp) == 0 {
			// Neither window holds anything below the boundary: the
			// smallest key present spans a whole window (a duplicate run
			// at least window-sized, or the endgame where both streams
			// finish on the boundary key). Drain that one key exactly.
			if err := drainKey(ws, wp, emit); err != nil {
				return err
			}
			continue
		} else if len(cs) == 0 || len(cp) == 0 {
			// One side holds only boundary-key pairs; the other side's
			// clipped portion cannot match them, so consume it alone.
			ws.Consume(len(cs))
			wp.Consume(len(cp))
			continue
		}

		// Prefetch the next windows before the device pass: the advance
		// ops read the windows' unconsumed tails and the readers, never
		// the clipped prefixes the kernels and the emission loop are using.
		ws.Advance(ioS, len(cs))
		wp.Advance(ioS, len(cp))

		// Device pass: vectorized bounds and counts (lines 8-10).
		// AllocWait lets concurrent partition reducers share the device;
		// capacity bounds how many windows are resident at once.
		alloc, err := dev.AllocWait(ctx, int64(len(cs)+len(cp))*kv.PairBytes+3*4*int64(len(cs)))
		if err != nil {
			return err
		}
		cmp.CopyToDeviceAsync(int64(len(cs)+len(cp)) * kv.PairBytes)
		lb = cmp.VecLowerBound(cs, cp, lb)
		ub = cmp.VecUpperBound(cs, cp, ub)
		diff = cmp.VecDifference(ub, lb, diff)
		cmp.CopyFromDeviceAsync(3 * 4 * int64(len(cs)))
		alloc.Free()

		// Edge emission (lines 11-17).
		for i := range cs {
			if diff[i] <= 0 {
				continue
			}
			for j := lb[i]; j < ub[i]; j++ {
				if err := emit(cs[i].Val, cp[j].Val); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// drainKey exactly processes the smallest key visible in either window
// when that key's duplicates fill a whole window. It collects the key's
// complete run of prefix values (refilling across window boundaries),
// streams the suffix run against it, and emits the full cross product.
// Host memory here is bounded by the run length rather than the window —
// the one place the implementation deliberately exceeds the paper's M,
// because Algorithm 2 as published stalls or drops matches on runs longer
// than a window (see package comment).
func drainKey(ws, wp *kvio.Window, emit Emit) error {
	sk, pk := ws.Pairs()[0].Key, wp.Pairs()[0].Key
	k := kv.Min(sk, pk)
	if k != sk || k != pk {
		// Only one stream holds k: drain its run without emitting.
		side := ws
		if k == pk {
			side = wp
		}
		_, err := collectRun(side, k)
		return err
	}
	pvals, err := collectRun(wp, k)
	if err != nil {
		return err
	}
	for {
		if err := ws.Fill(); err != nil {
			return err
		}
		buf := ws.Pairs()
		n := 0
		for n < len(buf) && buf[n].Key == k {
			n++
		}
		if n == 0 {
			return nil // run over (or suffix stream never held k)
		}
		for i := 0; i < n; i++ {
			for _, v := range pvals {
				if err := emit(buf[i].Val, v); err != nil {
					return err
				}
			}
		}
		ws.Consume(n)
		if len(ws.Pairs()) > 0 {
			return nil // a key beyond k surfaced: run finished
		}
	}
}

// collectRun consumes and returns every value carrying key k from the
// stream, refilling the window as needed.
func collectRun(ws *kvio.Window, k kv.Key) ([]uint32, error) {
	var vals []uint32
	for {
		if err := ws.Fill(); err != nil {
			return nil, err
		}
		buf := ws.Pairs()
		n := 0
		for n < len(buf) && buf[n].Key == k {
			vals = append(vals, buf[n].Val)
			n++
		}
		ws.Consume(n)
		if len(ws.Pairs()) > 0 || n == 0 {
			return vals, nil // a later key surfaced, or the stream ended
		}
	}
}
