package dna

// Deduplicate returns a read set with duplicate reads removed, and the
// number of reads dropped. Two reads are duplicates when their canonical
// forms match, where the canonical form is the lexicographically smaller
// of the read and its reverse complement — a read equal to another
// read's reverse complement contributes exactly the same vertex pair to
// the string graph and is therefore redundant.
//
// High-coverage error-free data is full of exact duplicates, and under
// the paper's greedy rule a duplicate pair forms a 2-cycle (A->B and
// B->A are both accepted) that removes both reads from longer chains.
// That story does not explain the unitig backends (spmat, succinct), which
// fragment far worse without this step (N50 100 against greedy's ~1 000
// on core's TestDedupeTargetPerBackend input): for equal reads A and A'
// and a predecessor P, the two-hop reducer removes neither P->A nor P->A',
// because neither is transitive through the other, so every duplicate
// becomes a branch and ends a unitig.
// The paper does not deduplicate; this is offered as an optional
// preprocessing step (core.Config.DedupeReads).
func Deduplicate(rs *ReadSet) (*ReadSet, int) {
	out := NewReadSet(rs.NumReads(), int(rs.TotalBases()))
	seen := make(map[string]struct{}, rs.NumReads())
	removed := 0
	rcBuf := make(Seq, rs.MaxLen())
	for i := 0; i < rs.NumReads(); i++ {
		r := rs.Read(uint32(i))
		rc := rcBuf[:len(r)]
		r.ReverseComplementInto(rc)
		key := canonicalKey(r, rc)
		if _, dup := seen[key]; dup {
			removed++
			continue
		}
		seen[key] = struct{}{}
		out.Append(r)
	}
	return out, removed
}

// canonicalKey returns the smaller of the two orientations as a string
// key (byte-wise comparison over base codes is lexicographic).
func canonicalKey(fwd, rc Seq) string {
	for i := range fwd {
		if fwd[i] != rc[i] {
			if fwd[i] < rc[i] {
				return string(fwd)
			}
			return string(rc)
		}
	}
	return string(fwd)
}
