package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"mirror/internal/bat"
)

// Heap-file encoding. Every materialised column becomes one binary heap
// file (fixed-width kinds: the raw little-endian value array, nothing
// else) or, for var-width kinds (str), an offset file plus a byte-heap
// file. Void columns are pure metadata (base + length in the manifest)
// and own no file. All sizes and CRC-32C checksums live in the
// manifest, so a heap file can be mapped and used without reading a
// header first.
//
//	oid, int:  n × 8 bytes (uint64/int64, little-endian)
//	flt:       n × 8 bytes (IEEE-754 bits, little-endian)
//	bit:       n × 1 byte (0 or 1)
//	bytes:     n × 1 byte, raw (compressed postings blobs; format
//	           version ≥ 3 stores only)
//	str:       offsets file: (n+1) × 8 bytes, off[0] = 0, off[i] =
//	           cumulative byte length; heap file: the concatenated
//	           string bytes
//
// On little-endian hosts the 8-byte kinds are written straight from and
// mapped straight into the column's backing slice (zero-copy); other
// hosts fall back to an explicit encode/decode.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the running machine is little-endian;
// the zero-copy casts are only valid when it is.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// colMeta is the manifest's description of one persisted column.
type colMeta struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
	Base uint64 `json:"base,omitempty"` // void columns: first OID

	File string `json:"file,omitempty"` // data file (offset file for str)
	Size int64  `json:"size,omitempty"`
	CRC  uint32 `json:"crc,omitempty"`

	Heap     string `json:"heap,omitempty"` // str: byte-heap file
	HeapSize int64  `json:"heap_size,omitempty"`
	HeapCRC  uint32 `json:"heap_crc,omitempty"`
}

// u64Bytes views a []uint64-shaped slice as raw bytes (little-endian
// hosts only).
func u64Bytes[T ~uint64 | ~int64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// fixedEncode renders a fixed-width column as its heap-file bytes. On
// little-endian hosts the returned slice aliases the column storage (do
// not retain it past the write).
func fixedEncode(c *bat.Column) []byte {
	switch c.Kind() {
	case bat.KindOID:
		if hostLittleEndian {
			return u64Bytes(c.OIDs())
		}
		buf := make([]byte, len(c.OIDs())*8)
		for i, v := range c.OIDs() {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		return buf
	case bat.KindInt:
		if hostLittleEndian {
			return u64Bytes(c.Ints())
		}
		buf := make([]byte, len(c.Ints())*8)
		for i, v := range c.Ints() {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		return buf
	case bat.KindFloat:
		if hostLittleEndian {
			return f64Bytes(c.Floats())
		}
		buf := make([]byte, len(c.Floats())*8)
		for i, v := range c.Floats() {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		return buf
	case bat.KindBool:
		buf := make([]byte, len(c.Bools()))
		for i, v := range c.Bools() {
			if v {
				buf[i] = 1
			}
		}
		return buf
	case bat.KindBytes:
		return c.Bytes()
	}
	panic("storage: fixedEncode on non-fixed column")
}

// writeHeapFile writes data to path via a temp sibling, fsyncs it, and
// renames it into place. Returns the CRC-32C of the data. The caller
// fsyncs the containing directory once per checkpoint.
func writeHeapFile(path string, data []byte) (uint32, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("storage: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("storage: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("storage: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("storage: rename %s: %w", path, err)
	}
	return crc32.Checksum(data, crcTable), nil
}

// writeColumn persists one column under dir, naming its files
// "<stem>[.heap]", and returns the manifest entry.
func writeColumn(dir, stem string, c *bat.Column) (colMeta, error) {
	m := colMeta{Kind: c.Kind().String(), N: c.Len()}
	switch c.Kind() {
	case bat.KindVoid:
		m.Base = uint64(c.Base())
		return m, nil
	case bat.KindStr:
		strs := c.Strs()
		offs := make([]uint64, len(strs)+1)
		var total uint64
		for i, s := range strs {
			total += uint64(len(s))
			offs[i+1] = total
		}
		heap := make([]byte, 0, total)
		for _, s := range strs {
			heap = append(heap, s...)
		}
		offBytes := make([]byte, len(offs)*8)
		for i, o := range offs {
			binary.LittleEndian.PutUint64(offBytes[i*8:], o)
		}
		m.File, m.Size = stem, int64(len(offBytes))
		crc, err := writeHeapFile(filepath.Join(dir, stem), offBytes)
		if err != nil {
			return m, err
		}
		m.CRC = crc
		m.Heap, m.HeapSize = stem+".heap", int64(len(heap))
		hcrc, err := writeHeapFile(filepath.Join(dir, stem+".heap"), heap)
		if err != nil {
			return m, err
		}
		m.HeapCRC = hcrc
		return m, nil
	default:
		data := fixedEncode(c)
		m.File, m.Size = stem, int64(len(data))
		crc, err := writeHeapFile(filepath.Join(dir, stem), data)
		if err != nil {
			return m, err
		}
		m.CRC = crc
		return m, nil
	}
}

// readHeapFile reads a whole heap file into private memory, checking
// its size (always) and checksum (when verify).
func readHeapFile(path string, wantSize int64, wantCRC uint32, verify bool) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read heap file: %w", err)
	}
	if int64(len(data)) != wantSize {
		return nil, fmt.Errorf("storage: heap file %s: size %d, manifest says %d (truncated or corrupt)", path, len(data), wantSize)
	}
	if verify && crc32.Checksum(data, crcTable) != wantCRC {
		return nil, fmt.Errorf("storage: heap file %s: checksum mismatch (corrupt)", path)
	}
	return data, nil
}

// sizeHolds reports whether a file of size bytes holds exactly n values
// of width bytes each, without overflowing on a corrupt manifest's n.
func sizeHolds(size, width int64, n int) bool {
	return size >= 0 && size%width == 0 && size/width == int64(n)
}

// loadColumn rebuilds a column from its heap file(s). When mmapOK the
// 8-byte fixed-width kinds are mapped and adopted zero-copy; the
// returned mappings must stay open for the column's lifetime. All other
// paths copy into private memory and return no mappings.
func loadColumn(dir string, m colMeta, mmapOK, verify bool) (*bat.Column, []mapping, error) {
	kind, err := bat.KindFromString(m.Kind)
	if err != nil {
		return nil, nil, err
	}
	if m.N < 0 {
		return nil, nil, fmt.Errorf("storage: column length %d in manifest (corrupt)", m.N)
	}
	switch kind {
	case bat.KindVoid:
		return bat.NewVoid(bat.OID(m.Base), m.N), nil, nil

	case bat.KindOID, bat.KindInt, bat.KindFloat:
		path := filepath.Join(dir, m.File)
		if !sizeHolds(m.Size, 8, m.N) {
			return nil, nil, fmt.Errorf("storage: heap file %s: manifest n=%d inconsistent with size %d", path, m.N, m.Size)
		}
		if mmapOK && hostLittleEndian && m.Size > 0 {
			mp, err := mapFile(path, m.Size)
			if err == nil {
				if verify && crc32.Checksum(mp.data, crcTable) != m.CRC {
					mp.close()
					return nil, nil, fmt.Errorf("storage: heap file %s: checksum mismatch (corrupt)", path)
				}
				var c *bat.Column
				p := unsafe.Pointer(&mp.data[0])
				switch kind {
				case bat.KindOID:
					c = bat.ColumnOfOIDs(unsafe.Slice((*bat.OID)(p), m.N))
				case bat.KindInt:
					c = bat.ColumnOfInts(unsafe.Slice((*int64)(p), m.N))
				case bat.KindFloat:
					c = bat.ColumnOfFloats(unsafe.Slice((*float64)(p), m.N))
				}
				return c, []mapping{mp}, nil
			}
			// fall through to the portable read on any mmap failure
		}
		data, err := readHeapFile(path, m.Size, m.CRC, verify)
		if err != nil {
			return nil, nil, err
		}
		switch kind {
		case bat.KindOID:
			s := make([]bat.OID, m.N)
			for i := range s {
				s[i] = bat.OID(binary.LittleEndian.Uint64(data[i*8:]))
			}
			return bat.ColumnOfOIDs(s), nil, nil
		case bat.KindInt:
			s := make([]int64, m.N)
			for i := range s {
				s[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
			}
			return bat.ColumnOfInts(s), nil, nil
		default:
			s := make([]float64, m.N)
			for i := range s {
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
			return bat.ColumnOfFloats(s), nil, nil
		}

	case bat.KindBool:
		path := filepath.Join(dir, m.File)
		if int64(m.N) != m.Size {
			return nil, nil, fmt.Errorf("storage: heap file %s: manifest n=%d inconsistent with size %d", path, m.N, m.Size)
		}
		data, err := readHeapFile(path, m.Size, m.CRC, verify)
		if err != nil {
			return nil, nil, err
		}
		s := make([]bool, m.N)
		for i, b := range data {
			s[i] = b != 0
		}
		return bat.ColumnOfBools(s), nil, nil

	case bat.KindBytes:
		path := filepath.Join(dir, m.File)
		if int64(m.N) != m.Size {
			return nil, nil, fmt.Errorf("storage: heap file %s: manifest n=%d inconsistent with size %d", path, m.N, m.Size)
		}
		if mmapOK && m.Size > 0 {
			mp, err := mapFile(path, m.Size)
			if err == nil {
				if verify && crc32.Checksum(mp.data, crcTable) != m.CRC {
					mp.close()
					return nil, nil, fmt.Errorf("storage: heap file %s: checksum mismatch (corrupt)", path)
				}
				return bat.ColumnOfBytes(mp.data[:m.N]), []mapping{mp}, nil
			}
			// fall through to the portable read on any mmap failure
		}
		data, err := readHeapFile(path, m.Size, m.CRC, verify)
		if err != nil {
			return nil, nil, err
		}
		return bat.ColumnOfBytes(data), nil, nil

	case bat.KindStr:
		offPath := filepath.Join(dir, m.File)
		if !sizeHolds(m.Size, 8, m.N+1) {
			return nil, nil, fmt.Errorf("storage: offset file %s: manifest n=%d inconsistent with size %d", offPath, m.N, m.Size)
		}
		offData, err := readHeapFile(offPath, m.Size, m.CRC, verify)
		if err != nil {
			return nil, nil, err
		}
		heap, err := readHeapFile(filepath.Join(dir, m.Heap), m.HeapSize, m.HeapCRC, verify)
		if err != nil {
			return nil, nil, err
		}
		strs := make([]string, m.N)
		prev := uint64(0)
		for i := 0; i < m.N; i++ {
			off := binary.LittleEndian.Uint64(offData[(i+1)*8:])
			if off < prev || off > uint64(len(heap)) {
				return nil, nil, fmt.Errorf("storage: offset file %s: offset %d out of order or past heap end %d (corrupt)", offPath, off, len(heap))
			}
			strs[i] = string(heap[prev:off])
			prev = off
		}
		return bat.ColumnOfStrs(strs), nil, nil
	}
	return nil, nil, fmt.Errorf("storage: unknown column kind %q", m.Kind)
}
