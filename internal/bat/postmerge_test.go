package bat

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// flatSeg is one segment's postings as flat term-ordered arrays, the
// input EncodeBlockSegment takes.
type flatSeg struct {
	starts []int64
	docs   []OID
	tfs    []int64
	bels   []float64
}

// mergeShape turns fuzz input into segments over adjacent ascending
// document ranges. Each shape byte drives one term of one segment: its
// run length (empty, under a block, several blocks, or over maxBeliefDict
// postings) and its belief palette (one or a few values, every posting
// distinct, or the odd floats ±0, ±Inf and NaNs of two payloads). Segments
// end after a random number of terms, so some hold fewer terms than
// others. overlap makes the last segment restart at document 0, which the
// merge must refuse exactly as the encoder does.
func mergeShape(seed int64, shape []byte, nsegs int, overlap bool) []flatSeg {
	rng := rand.New(rand.NewSource(seed))
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), nan2, math.Inf(1), math.Inf(-1), 0.5}
	segs := make([]flatSeg, nsegs)
	base := 0
	at := 0
	for s := range segs {
		if overlap && s == nsegs-1 && s > 0 {
			base = 0
		}
		nt := rng.Intn(6)
		span := 1 + rng.Intn(6000)
		fs := flatSeg{starts: []int64{0}}
		for t := 0; t < nt; t++ {
			var b byte
			if at < len(shape) {
				b = shape[at]
				at++
			}
			var n int
			switch b % 5 {
			case 0:
				n = 0
			case 1:
				n = 1 + rng.Intn(20)
			case 2:
				n = 100 + rng.Intn(300)
			case 3:
				n = PostingsBlockSize * (1 + rng.Intn(3))
			default:
				n = maxBeliefDict + 1 + rng.Intn(200)
			}
			n = min(n, span)
			// n distinct documents of [base, base+span), ascending
			for _, d := range sortedSample(rng, span, n) {
				fs.docs = append(fs.docs, OID(base+d))
				fs.tfs = append(fs.tfs, int64(rng.Intn(300)))
			}
			palette := 1 + int(b>>3)%4
			for i := 0; i < n; i++ {
				var v float64
				switch (b >> 5) % 4 {
				case 0:
					v = 0.4 + 0.1*float64(rng.Intn(palette))
				case 1:
					v = float64(len(fs.bels)) + 0.25 // every posting distinct
				case 2:
					v = odd[rng.Intn(len(odd))]
				default:
					v = 0.4 + rng.Float64()*0.6
				}
				fs.bels = append(fs.bels, v)
			}
			fs.starts = append(fs.starts, int64(len(fs.docs)))
		}
		segs[s] = fs
		base += span
	}
	return segs
}

// sortedSample draws n distinct integers of [0, span), ascending.
func sortedSample(rng *rand.Rand, span, n int) []int {
	if n*2 > span {
		out := rng.Perm(span)[:n]
		slices.Sort(out)
		return out
	}
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		if d := rng.Intn(span); !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	slices.Sort(out)
	return out
}

// concatSegs is the reference merge input: each term's runs concatenated
// in segment order, over as many terms as the largest segment holds.
func concatSegs(segs []flatSeg) flatSeg {
	nt := 0
	for _, s := range segs {
		nt = max(nt, len(s.starts)-1)
	}
	out := flatSeg{starts: []int64{0}, bels: []float64{}}
	for t := 0; t < nt; t++ {
		for _, s := range segs {
			if t+1 >= len(s.starts) {
				continue
			}
			lo, hi := s.starts[t], s.starts[t+1]
			out.docs = append(out.docs, s.docs[lo:hi]...)
			out.tfs = append(out.tfs, s.tfs[lo:hi]...)
			out.bels = append(out.bels, s.bels[lo:hi]...)
		}
		out.starts = append(out.starts, int64(len(out.docs)))
	}
	return out
}

func segView(t testing.TB, seg PostingsSeg) *BlockPostings {
	t.Helper()
	bp, err := NewBlockPostings(seg.Start, seg.BlkStart, seg.BlkDir, seg.BlkDoc, seg.BlkBDir, seg.BlkBel, seg.MaxBel)
	if err != nil {
		t.Fatalf("NewBlockPostings: %v", err)
	}
	return bp
}

// requireSameSeg compares all seven columns byte for byte (floats by bit
// pattern).
func requireSameSeg(t testing.TB, got, want PostingsSeg) {
	t.Helper()
	ints := []struct {
		name string
		g, w *BAT
	}{{"_poststart", got.Start, want.Start}, {"_blkstart", got.BlkStart, want.BlkStart}, {"_blkdir", got.BlkDir, want.BlkDir}, {"_blkbdir", got.BlkBDir, want.BlkBDir}}
	for _, c := range ints {
		if !slices.Equal(c.g.Tail.Ints(), c.w.Tail.Ints()) {
			t.Fatalf("%s differs: %v vs %v", c.name, c.g.Tail.Ints(), c.w.Tail.Ints())
		}
	}
	if !bytes.Equal(got.BlkDoc.Tail.Bytes(), want.BlkDoc.Tail.Bytes()) {
		t.Fatalf("_blkdoc differs (%d vs %d bytes)", len(got.BlkDoc.Tail.Bytes()), len(want.BlkDoc.Tail.Bytes()))
	}
	if !bytes.Equal(got.BlkBel.Tail.Bytes(), want.BlkBel.Tail.Bytes()) {
		t.Fatalf("_blkbel differs (%d vs %d bytes)", len(got.BlkBel.Tail.Bytes()), len(want.BlkBel.Tail.Bytes()))
	}
	g, w := got.MaxBel.Tail.Floats(), want.MaxBel.Tail.Floats()
	if len(g) != len(w) {
		t.Fatalf("_maxbel has %d entries, want %d", len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("_maxbel[%d] = %v, want %v", i, g[i], w[i])
		}
	}
}

// FuzzMergeSegments pins the dictionary-union merge to the encoder: the
// merge of random block segments equals EncodeBlockSegment of their
// concatenated postings in all seven columns, byte for byte, and refuses
// overlapping document ranges exactly when the encoder does.
func FuzzMergeSegments(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 3}, uint8(2), false)
	f.Add(int64(2), []byte{0, 0x21, 0x43, 0x62, 0x83}, uint8(3), false)    // empty, all-distinct and odd-float runs
	f.Add(int64(3), []byte{4, 0x24, 0x44, 0x64}, uint8(2), false)          // > maxBeliefDict postings
	f.Add(int64(4), []byte{0x43, 0x43, 0x43, 0x43, 0x43}, uint8(4), false) // ±0, ±Inf and NaNs across segments
	f.Add(int64(5), []byte{2, 2, 2}, uint8(3), true)                       // overlapping ranges: an error
	f.Add(int64(6), []byte{0x19, 0x1a, 0x1b}, uint8(1), false)             // one input
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, nsegs uint8, overlap bool) {
		segs := mergeShape(seed, shape, 1+int(nsegs)%4, overlap)
		views := make([]*BlockPostings, len(segs))
		for i, s := range segs {
			enc, err := EncodeBlockSegment(s.starts, s.docs, s.tfs, s.bels)
			if err != nil {
				t.Fatalf("segment %d: %v", i, err)
			}
			views[i] = segView(t, enc)
		}
		flat := concatSegs(segs)
		want, werr := EncodeBlockSegment(flat.starts, flat.docs, flat.tfs, flat.bels)
		got, gerr := MergeBlockSegments(views)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("merge error %v, encoder error %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		requireSameSeg(t, got, want)
	})
}

// TestMergeFallsBackOnOddDictionaries: inputs this package never writes —
// a dictionary entry no posting uses, a dictionary out of key order —
// still merge to the encoder's bytes (the merge decodes and re-encodes
// those terms).
func TestMergeFallsBackOnOddDictionaries(t *testing.T) {
	// term 0 of segment a: dictionary {0.5, 0.7, 0.9} whose 0.7 no posting
	// indexes; term 1: dictionary {0.9, 0.5}, descending.
	var bel []byte
	bel = appendDictRun(bel, []float64{0.5, 0.7, 0.9}, []uint64{0, 2, 2, 0, 2, 2, 0, 2, 2, 0})
	end0 := len(bel)
	bel = appendDictRun(bel, []float64{0.9, 0.5}, []uint64{0, 1, 1, 0, 1, 1, 0, 1, 1, 0})
	end1 := len(bel)
	docs := make([]OID, 10)
	tfs := make([]int64, 10)
	for i := range docs {
		docs[i], tfs[i] = OID(i), 1
	}
	pe := NewBlockPostingsEncoder(2)
	if err := pe.AddTerm(docs, tfs); err != nil {
		t.Fatal(err)
	}
	if err := pe.AddTerm(docs, tfs); err != nil {
		t.Fatal(err)
	}
	dense := func(tail *Column) *BAT {
		return &BAT{Head: NewVoid(0, tail.Len()), Tail: tail, HSorted: true, HKey: true}
	}
	a := PostingsSeg{
		Start: dense(ColumnOfInts([]int64{0, 10, 20})), BlkStart: dense(ColumnOfInts(pe.BlkStart)),
		BlkDir: dense(ColumnOfInts(pe.BlkDir)), BlkDoc: dense(ColumnOfBytes(pe.Data)),
		BlkBDir: dense(ColumnOfInts([]int64{int64(end0), int64(QuantizeBoundUp(0.9)), int64(end1), int64(QuantizeBoundUp(0.9))})),
		BlkBel:  dense(ColumnOfBytes(bel)), MaxBel: dense(ColumnOfFloats([]float64{0.9, 0.9})),
	}
	b, err := EncodeBlockSegment([]int64{0, 2, 3}, []OID{20, 21, 22}, []int64{1, 1, 1}, []float64{0.7, 0.3, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	va, vb := segView(t, a), segView(t, b)
	var p TermPostings
	for tt := 0; tt < 2; tt++ {
		if err := p.AppendTerm(va, tt); err != nil {
			t.Fatal(err)
		}
		if err := p.AppendTerm(vb, tt); err != nil {
			t.Fatal(err)
		}
	}
	ones := make([]int64, len(p.Docs))
	for i := range ones {
		ones[i] = 1
	}
	want, err := EncodeBlockSegment([]int64{0, 12, 23}, p.Docs, ones, p.Bels)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeBlockSegments([]*BlockPostings{va, vb})
	if err != nil {
		t.Fatal(err)
	}
	requireSameSeg(t, got, want)
}

// appendDictRun appends one dictionary-coded term run, one block long.
func appendDictRun(dst []byte, dict []float64, idx []uint64) []byte {
	dst = append(dst, byte(len(dict)))
	for _, v := range dict {
		dst = appendFloatBits(dst, v)
	}
	for _, i := range idx {
		dst = append(dst, byte(i))
	}
	return dst
}

func appendFloatBits(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(b>>(8*i)))
	}
	return dst
}
