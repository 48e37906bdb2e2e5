package mirror

// E10 — the BAT buffer pool claim: persistence by flushing dirty BATs
// out of memory-mapped heap files beats rewriting the database, both
// on the write side (incremental checkpoint vs a fresh pool's full
// checkpoint)
// and on the read side (mmap cold start vs whole-directory load).
// EXPERIMENTS.md records the measured ratios; the acceptance bar is
// ≥5× on a 1M-BUN × 16-BAT store.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/storage"
)

const (
	e10BATs = 16
	e10BUNs = 1_000_000
)

// e10Store builds the 16 × 1M-BUN int store once per process.
var e10Store = sync.OnceValue(func() map[string]*bat.BAT {
	bats := make(map[string]*bat.BAT, e10BATs)
	for i := 0; i < e10BATs; i++ {
		vals := make([]int64, e10BUNs)
		for j := range vals {
			vals[j] = int64(i*e10BUNs + j)
		}
		b, err := bat.FromColumns(bat.NewVoid(0, e10BUNs), bat.ColumnOfInts(vals), true, true, true, true)
		if err != nil {
			panic(err)
		}
		bats[fmt.Sprintf("col%02d", i)] = b
	}
	return bats
})

// e10FullCheckpoint writes bats into a new store at dir through a fresh
// pool: with nothing resident, its first checkpoint rewrites every BAT.
func e10FullCheckpoint(dir string, bats map[string]*bat.BAT, extra map[string]string) error {
	p, err := storage.Create(dir, storage.Options{})
	if err != nil {
		return err
	}
	defer p.Close()
	_, err = p.Checkpoint(bats, extra)
	return err
}

// e10SavedDir lazily materialises one checkpointed store for the
// load-side benchmarks, shared across them (read-only).
var e10SavedDir = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "e10-store-*")
	if err != nil {
		return "", err
	}
	dir = filepath.Join(dir, "db")
	return dir, e10FullCheckpoint(dir, e10Store(), map[string]string{"e": "10"})
})

// TestE10IncrementalCheckpointShape is the deterministic shape claim
// behind the E10 benchmarks: after touching 1 of 16 BATs, a checkpoint
// writes one BAT's heap bytes, not the store's.
func TestE10IncrementalCheckpointShape(t *testing.T) {
	const nBats, nBuns = 16, 10_000
	dir := filepath.Join(t.TempDir(), "db")
	bats := make(map[string]*bat.BAT, nBats)
	for i := 0; i < nBats; i++ {
		vals := make([]int64, nBuns)
		b, err := bat.FromColumns(bat.NewVoid(0, nBuns), bat.ColumnOfInts(vals), true, true, true, true)
		if err != nil {
			t.Fatal(err)
		}
		bats[fmt.Sprintf("col%02d", i)] = b
	}
	p, err := storage.Create(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	full, err := p.Checkpoint(bats, nil)
	if err != nil {
		t.Fatal(err)
	}
	bats["col03"].MustAppend(bat.OID(nBuns), int64(1))
	inc, err := p.Checkpoint(bats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Written != 1 {
		t.Fatalf("incremental checkpoint rewrote %d BATs, want 1", inc.Written)
	}
	if inc.Bytes*8 > full.Bytes {
		t.Fatalf("incremental checkpoint wrote %d bytes vs %d full — not even 8× less", inc.Bytes, full.Bytes)
	}
}

// BenchmarkE10_FullSave is the baseline writer: a fresh pool's full
// checkpoint, every BAT rewritten — the pre-BBP whole-database save.
func BenchmarkE10_FullSave(b *testing.B) {
	bats := e10Store()
	b.SetBytes(int64(e10BATs) * e10BUNs * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "db")
		b.StartTimer()
		if err := e10FullCheckpoint(dir, bats, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_IncrementalCheckpoint dirties 1 of the 16 BATs per
// iteration and checkpoints: only that BAT's heap files plus the
// manifest are written.
func BenchmarkE10_IncrementalCheckpoint(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "db")
	bats := make(map[string]*bat.BAT, e10BATs)
	for name, src := range e10Store() {
		bats[name] = src.Clone()
	}
	p, err := storage.Create(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Checkpoint(bats, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(e10BUNs * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := bats[fmt.Sprintf("col%02d", i%e10BATs)]
		victim.MarkDirty()
		st, err := p.Checkpoint(bats, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.Written != 1 {
			b.Fatalf("incremental checkpoint wrote %d BATs, want 1", st.Written)
		}
	}
}

// BenchmarkE10_FullLoad is the baseline reader: every heap file read
// and decoded into private memory (storage.Load, the pre-BBP shape).
func BenchmarkE10_FullLoad(b *testing.B) {
	dir, err := e10SavedDir()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(e10BATs) * e10BUNs * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bats, _, err := storage.Load(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(bats) != e10BATs {
			b.Fatal("short load")
		}
	}
}

// BenchmarkE10_ColdStartMmap opens the store and touches a small
// working set of every BAT through the pool: the mmap path faults in
// only the pages used, so cold start is O(working set).
func BenchmarkE10_ColdStartMmap(b *testing.B) {
	dir, err := e10SavedDir()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := storage.Open(dir, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var sum int64
		for j := 0; j < e10BATs; j++ {
			name := fmt.Sprintf("col%02d", j)
			bt, err := p.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			sum += bt.Tail.IntAt(0) + bt.Tail.IntAt(bt.Len()-1)
		}
		if sum == 0 {
			b.Fatal("unexpected zero checksum")
		}
		p.Close()
	}
}
