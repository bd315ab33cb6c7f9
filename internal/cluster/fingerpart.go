package cluster

import (
	"repro/internal/fingerprint"
	"repro/internal/kv"
)

// keySpace is the size of the high fingerprint component's value space:
// the first hash is taken modulo fingerprint.ParamsA.Prime, so Hi values
// are uniform in [0, keySpace).
const keySpace = fingerprint.KeySpaceHi

// Fingerprint-range partitioning — the paper's stated future work
// (Section IV-D): "we are working on partitioning the suffixes/prefixes
// based on their fingerprints rather than on lengths."
//
// Under length partitioning, node (l-lmin) mod N owns all tuples of
// overlap length l, so at most min(N, lmax-lmin) nodes can work on the
// reduce phase concurrently and skew between partition sizes maps
// directly to load skew. Under fingerprint partitioning every node owns
// a fixed slice of the 128-bit fingerprint space across all lengths:
// each length's tuple lists are split N ways, every node reduces its
// slice of every partition, and the per-length candidate lists are
// re-assembled in fingerprint order — which is exactly the order the
// single-node reduce emits, so the greedy result stays bit-identical.

// owns reports whether node id keeps key k of length partition l — the one
// place partition ownership is decided. By length (Section III-E.2) the
// partitions go round the nodes and the key is ignored; by fingerprint
// (fingerpart.go) the high hash component, uniform in [0, keySpace), is cut
// into equal slices, so higher fingerprints land on higher node IDs.
func (c *Cluster) owns(id, l int, k kv.Key) bool {
	if !c.cfg.PartitionByFingerprint {
		return (l-c.cfg.MinOverlap)%len(c.nodes) == id
	}
	stride := keySpace/uint64(len(c.nodes)) + 1
	return min(int(k.Hi/stride), len(c.nodes)-1) == id
}
