package fingerprint

import (
	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/kv"
)

// NaiveKernel computes the same prefix and suffix fingerprints with the
// scheme Section III-A rejects: one thread per read evaluating the
// rolling hash sequentially (Horner). On a real GPU every thread in a
// warp then walks a different read, so global-memory accesses are
// uncoalesced — each 1-byte base load occupies a full memory transaction
// — and the shared-memory reuse of the block-per-read scan is lost. The
// cost model captures that with a warp-width (32x) memory amplification,
// which is what makes this kernel lose to the Hillis-Steele scan in the
// ablation benchmark even though it does asymptotically less arithmetic.
//
// The host values come from the same recurrence and derivation as
// Kernel's; the two kernels differ only in what they charge.
type NaiveKernel struct {
	table *Table
}

// warpWidth is the modeled memory-transaction amplification for
// uncoalesced per-thread streaming.
const warpWidth = 32

// NewNaiveKernel returns a naive per-read kernel bound to the table.
func NewNaiveKernel(t *Table) *NaiveKernel {
	return &NaiveKernel{table: t}
}

// naiveCharge is one naive kernel launch over an n-base read: one
// uncoalesced read and write per element per hash component.
func naiveCharge(n int) (memBytes, ops int64) {
	return int64(n) * 2 * 16 * warpWidth, int64(n) * 2
}

// Prefixes fills out[i] with the fingerprint of s[0:i+1], charged as a
// per-thread sequential Horner evaluation.
func (k *NaiveKernel) Prefixes(dev *gpu.Device, s dna.Seq, out []kv.Key) []kv.Key {
	out = k.table.prefixes(s, out)
	if len(s) > 0 {
		dev.ChargeKernel(naiveCharge(len(s)))
	}
	return out
}

// ScanRead computes both fingerprint arrays of one read. The naive kernel
// has no metering to amortize — its two kernel launches stay separate
// charges — so this is just the two calls in sequence, provided so both
// kernels satisfy the mapper's interface.
func (k *NaiveKernel) ScanRead(dev *gpu.Device, s dna.Seq, pout, sout []kv.Key) (pf, sf []kv.Key) {
	pf = k.Prefixes(dev, s, pout)
	sf = k.Suffixes(dev, pf, sout)
	return pf, sf
}

// Suffixes fills out[i] with the fingerprint of s[i:], derived from the
// prefix fingerprints as the scan kernel does, but charged for the
// uncoalesced scattered writes of a per-thread kernel (the paper notes
// the scan approach "avoids scattered writes during suffix fingerprint
// generation").
func (k *NaiveKernel) Suffixes(dev *gpu.Device, prefixes []kv.Key, out []kv.Key) []kv.Key {
	out = k.table.suffixDerive(prefixes, out)
	if n := len(prefixes); n > 0 {
		dev.ChargeKernel(naiveCharge(n))
	}
	return out
}
