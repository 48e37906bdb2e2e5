package bat

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// refBeliefsEncoder is BlockBeliefsEncoder as it stood before the
// dictionary was built by sorting: distinct values collected in a map in
// first-appearance order, sorted afterwards, indexed through the map.
type refBeliefsEncoder struct {
	BelDir []int64
	Data   []byte

	dict []float64
	idx  map[uint64]int
}

func newRefBeliefsEncoder() *refBeliefsEncoder {
	return &refBeliefsEncoder{idx: make(map[uint64]int)}
}

func (e *refBeliefsEncoder) AddTerm(bels []float64) float64 {
	if len(bels) == 0 {
		return 0
	}
	e.dict = e.dict[:0]
	for k := range e.idx {
		delete(e.idx, k)
	}
	useDict := true
	for _, v := range bels {
		bits := math.Float64bits(v)
		if _, ok := e.idx[bits]; !ok {
			if len(e.dict) >= maxBeliefDict {
				useDict = false
				break
			}
			e.idx[bits] = 0
			e.dict = append(e.dict, v)
		}
	}
	if useDict {
		sort.Float64s(e.dict)
		for i, v := range e.dict {
			e.idx[math.Float64bits(v)] = i
		}
		dictSize := uvarintLen(uint64(len(e.dict))) + 8*len(e.dict)
		for _, v := range bels {
			dictSize += uvarintLen(uint64(e.idx[math.Float64bits(v)]))
		}
		if dictSize >= 1+8*len(bels) {
			useDict = false
		}
	}
	if useDict {
		e.Data = binary.AppendUvarint(e.Data, uint64(len(e.dict)))
		for _, v := range e.dict {
			e.Data = binary.LittleEndian.AppendUint64(e.Data, math.Float64bits(v))
		}
	} else {
		e.Data = binary.AppendUvarint(e.Data, 0)
	}
	max := math.Inf(-1)
	for lo := 0; lo < len(bels); lo += PostingsBlockSize {
		hi := lo + PostingsBlockSize
		if hi > len(bels) {
			hi = len(bels)
		}
		blkMax := math.Inf(-1)
		for _, v := range bels[lo:hi] {
			if useDict {
				e.Data = binary.AppendUvarint(e.Data, uint64(e.idx[math.Float64bits(v)]))
			} else {
				e.Data = binary.LittleEndian.AppendUint64(e.Data, math.Float64bits(v))
			}
			if v > blkMax {
				blkMax = v
			}
		}
		e.BelDir = append(e.BelDir, int64(len(e.Data)), int64(QuantizeBoundUp(blkMax)))
		if blkMax > max {
			max = blkMax
		}
	}
	return max
}

// beliefRuns derives term runs from fuzz input: raw supplies 8-byte
// float64 bit patterns (split into two runs), and a generated run of n
// postings draws from a palette of `distinct` belief-like values. Beliefs
// are never NaN or -0, the only values on which the two encoders may
// order a dictionary differently (TestBeliefsEncoderOddFloats covers
// those), so raw NaNs become 1 and -0 becomes +0.
func beliefRuns(raw []byte, n, distinct int) [][]float64 {
	var vals []float64
	for i := 0; i+8 <= len(raw); i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		switch {
		case math.IsNaN(v):
			v = 1
		case v == 0:
			v = 0
		}
		vals = append(vals, v)
	}
	gen := make([]float64, n)
	if distinct < 1 {
		distinct = 1
	}
	rnd := uint64(len(raw))*0x9e3779b97f4a7c15 + uint64(n) + 1
	for i := range gen {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		gen[i] = 0.4 + 0.6*float64(rnd%uint64(distinct))/float64(distinct)
	}
	return [][]float64{vals[:len(vals)/2], gen, vals[len(vals)/2:]}
}

// FuzzBeliefsEncoder pins the sort-built belief dictionary to the
// map-built reference bit for bit: the same Data, BelDir and returned
// maximum for every run, through one encoder of each kind (so scratch
// reuse across runs is covered too).
func FuzzBeliefsEncoder(f *testing.F) {
	dup := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.55))
	dup = append(dup, dup...)
	dup = binary.LittleEndian.AppendUint64(dup, math.Float64bits(0.7))
	dup = append(dup, dup...)
	f.Add(dup, uint16(300), uint16(3))           // duplicate values
	f.Add([]byte{}, uint16(9000), uint16(65535)) // > 4096 distinct: raw fallback
	f.Add([]byte{}, uint16(1), uint16(1))        // a run of 1
	f.Add([]byte{}, uint16(128), uint16(2))      // one full block
	f.Add([]byte{}, uint16(129), uint16(3))      // a full block and a 1-posting tail
	f.Add([]byte{}, uint16(129), uint16(129))    // all distinct: raw beats dict
	f.Add(binary.LittleEndian.AppendUint64(dup, math.Float64bits(math.Inf(1))), uint16(4097), uint16(4097))
	f.Fuzz(func(t *testing.T, raw []byte, n, distinct uint16) {
		runs := beliefRuns(raw, int(n)%10001, int(distinct))
		ref, enc := newRefBeliefsEncoder(), NewBlockBeliefsEncoder()
		for i, run := range runs {
			want, got := ref.AddTerm(run), enc.AddTerm(run)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("run %d: max %v, reference %v", i, got, want)
			}
		}
		if !bytes.Equal(enc.Data, ref.Data) {
			t.Fatalf("Data differs from the reference (%d vs %d bytes)", len(enc.Data), len(ref.Data))
		}
		if !slices.Equal(enc.BelDir, ref.BelDir) {
			t.Fatalf("BelDir differs from the reference")
		}
	})
}

// TestBeliefsEncoderOddFloats: a run holding NaNs (two payloads) and
// both zeros still decodes bit-exact, though its dictionary order may
// differ from a numeric sort's.
func TestBeliefsEncoderOddFloats(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	run := []float64{0, math.Copysign(0, -1), math.NaN(), nan2, 0.5, math.Inf(-1), math.Copysign(0, -1), nan2, 0.5}
	docs := make([][]int64, 2)
	for i := range run {
		docs[0] = append(docs[0], int64(i))
		docs[1] = append(docs[1], 1)
	}
	bp, _ := buildBlockColumns(t, [][2][]int64{{docs[0], docs[1]}}, [][]float64{run})
	_, _, bels := decodeAll(t, bp)
	for i, v := range run {
		if math.Float64bits(bels[0][i]) != math.Float64bits(v) {
			t.Fatalf("posting %d decodes to %x, encoded %x", i, math.Float64bits(bels[0][i]), math.Float64bits(v))
		}
	}
}
