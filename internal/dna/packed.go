package dna

// basesPerWord is how many 2-bit codes one packed word holds.
const basesPerWord = 32

// PackedReadSet stores many reads 2-bit packed with a shared offset table.
// It is the storage format used when a whole scaled dataset is held in
// host memory (e.g. by the contig phase, which streams reads a second
// time).
type PackedReadSet struct {
	words  []uint64
	starts []int64 // base offsets; len = NumReads+1
	maxLen int
}

// PackReadSet converts an unpacked read set.
func PackReadSet(rs *ReadSet) *PackedReadSet {
	p := &PackedReadSet{starts: make([]int64, 1, rs.NumReads()+1)}
	total := rs.TotalBases()
	p.words = make([]uint64, (total*2+63)/64)
	var base int64
	for i := 0; i < rs.NumReads(); i++ {
		r := rs.Read(uint32(i))
		for j, c := range r {
			pos := base + int64(j)
			p.words[pos/basesPerWord] |= uint64(c&3) << uint((pos%basesPerWord)*2)
		}
		base += int64(len(r))
		p.starts = append(p.starts, base)
		if len(r) > p.maxLen {
			p.maxLen = len(r)
		}
	}
	return p
}

// NumReads returns the number of reads.
func (p *PackedReadSet) NumReads() int { return len(p.starts) - 1 }

// Len returns the length of read i.
func (p *PackedReadSet) Len(i uint32) int {
	return int(p.starts[i+1] - p.starts[i])
}

// MaxLen returns the longest read length.
func (p *PackedReadSet) MaxLen() int { return p.maxLen }

// ReadInto unpacks read i into dst and returns the filled prefix of dst.
func (p *PackedReadSet) ReadInto(i uint32, dst Seq) Seq {
	start, end := p.starts[i], p.starts[i+1]
	n := int(end - start)
	dst = dst[:n]
	for j := 0; j < n; j++ {
		pos := start + int64(j)
		dst[j] = byte(p.words[pos/basesPerWord]>>uint((pos%basesPerWord)*2)) & 3
	}
	return dst
}

// Read unpacks read i into a fresh Seq.
func (p *PackedReadSet) Read(i uint32) Seq {
	return p.ReadInto(i, make(Seq, p.Len(i)))
}

// ApproxBytes estimates the host-memory footprint.
func (p *PackedReadSet) ApproxBytes() int64 {
	return 8*int64(cap(p.words)) + 8*int64(cap(p.starts))
}
