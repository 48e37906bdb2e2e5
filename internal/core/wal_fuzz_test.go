package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay replays hostile WAL tails beside the v3 fixture's
// checkpoint. The input is split at newlines (marshaled records hold
// none) and every part is framed with a valid length and CRC, so the
// JSON decoding and applyWALRecords really run instead of the torn-tail
// check stopping at the first byte. OpenPersistent must return a store
// or an error, never panic.
//
// Recovery changes nothing in the checkpoint (no orphans to sweep, no
// checkpoint taken), so one copy serves every input of a worker; only
// wal.log is rewritten.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	copyCheckpoint(f, v3Fixture, dir)
	recs, _, _, err := replayWAL(filepath.Join(v3Fixture, walName))
	if err != nil || len(recs) == 0 {
		f.Fatalf("fixture WAL: %d records, %v", len(recs), err)
	}
	raw, err := os.ReadFile(filepath.Join(v3Fixture, walName))
	if err != nil {
		f.Fatal(err)
	}
	var payloads [][]byte
	for off := 0; off+8 <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		payloads = append(payloads, raw[off+8:off+8+n])
		off += 8 + n
	}
	f.Add(bytes.Join(payloads, []byte("\n")))
	for _, p := range payloads {
		f.Add(p)
	}
	for _, s := range []string{
		`{"op":"merge","prefix":"ImageLibraryInternal_annotation","merge_lo":1,"merge_hi":0,"segs_before":1}`,
		`{"op":"merge","prefix":"ImageLibraryInternal_image","merge_lo":-3,"merge_hi":9,"segs_before":1}`,
		`{"op":"publish","base":10,"docs":[{"url":"http://nowhere"}]}`,
		`{"op":"publish","base":-1,"docs":[]}`,
		`{"op":"publish","ann_stats":{},"img_stats":{},"tag":3}`,
		`{"op":"publish","ann_stats":{},"img_stats":{},"full":true,"docs":[{"url":"x","words":["c0"]}]}`,
		`{"op":"insert","url":"u","annotation":"a","global":7}`,
		`{"op":"feedback","words":["forest"],"concepts":[""],"relevant":true}`,
		`{"op":"nope"}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var wal []byte
		for _, p := range bytes.Split(data, []byte("\n")) {
			if len(p) == 0 || len(p) > maxWALRecord {
				continue
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
			binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(p, walCRCTable))
			wal = append(append(wal, hdr[:]...), p...)
		}
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := OpenPersistent(PersistOptions{Dir: dir})
		if err == nil {
			m.ClosePersistent()
		}
	})
}

// copyCheckpoint copies a store's MANIFEST and heap files, not its WAL.
func copyCheckpoint(t testing.TB, src, dst string) {
	t.Helper()
	copyTree(t, filepath.Join(src, "bats"), filepath.Join(dst, "bats"))
	man, err := os.ReadFile(filepath.Join(src, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "MANIFEST"), man, 0o644); err != nil {
		t.Fatal(err)
	}
}
