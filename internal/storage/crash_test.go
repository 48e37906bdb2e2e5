package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mirror/internal/bat"
)

// crashFixture checkpoints a two-BAT store and returns its dir plus the
// path of one int heap file.
func crashFixture(t *testing.T) (dir, heapFile string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "db")
	a := bat.NewDense(0, bat.KindInt)
	for i := 0; i < 512; i++ {
		a.MustAppend(bat.OID(i), int64(i))
	}
	s := bat.NewDense(0, bat.KindStr)
	s.MustAppend(bat.OID(0), "hello")
	if err := checkpointFresh(dir, map[string]*bat.BAT{"nums": a, "strs": s}, nil); err != nil {
		t.Fatal(err)
	}
	p, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	heapFile = filepath.Join(dir, batsDirName, p.man.BATs["nums"].Tail.File)
	return dir, heapFile
}

func TestTruncatedHeapFileFailsLoudly(t *testing.T) {
	dir, heap := crashFixture(t)
	if err := os.Truncate(heap, 100); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {NoMmap: true}, {Verify: true}} {
		p, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err) // manifest itself is fine
		}
		_, err = p.Get("nums")
		if err == nil || !strings.Contains(err.Error(), "truncated or corrupt") {
			t.Fatalf("opts %+v: truncated heap file not detected: %v", opts, err)
		}
		if _, err := p.Get("strs"); err != nil {
			t.Fatalf("undamaged BAT must still load: %v", err)
		}
		p.Close()
	}
}

func TestCorruptHeapFileFailsLoudlyWithVerify(t *testing.T) {
	dir, heap := crashFixture(t)
	data, err := os.ReadFile(heap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(heap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, noMmap := range []bool{false, true} {
		p, err := Open(dir, Options{Verify: true, NoMmap: noMmap})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Get("nums"); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("noMmap=%v: corrupt heap file not detected: %v", noMmap, err)
		}
		p.Close()
	}
}

// TestCrashBeforeManifestCommitRecovers simulates a checkpoint that
// died after writing new-generation heap files but before publishing
// the manifest: the store must open to the previous checkpoint and
// sweep the orphans.
func TestCrashBeforeManifestCommitRecovers(t *testing.T) {
	dir, _ := crashFixture(t)
	bdir := filepath.Join(dir, batsDirName)
	// Half-written next generation: a tmp file and a complete-looking
	// heap file that no manifest references.
	for _, f := range []string{"nums.g99.tail", "nums.g99.tail.tmp"} {
		if err := os.WriteFile(filepath.Join(bdir, f), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A torn manifest replacement attempt.
	if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte("{half"), 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := Open(dir, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b, err := p.Get("nums")
	if err != nil {
		t.Fatalf("recovery to last checkpoint failed: %v", err)
	}
	if b.Len() != 512 || b.Tail.IntAt(511) != 511 {
		t.Fatal("recovered BAT has wrong content")
	}
	if _, err := os.Stat(filepath.Join(bdir, "nums.g99.tail")); !os.IsNotExist(err) {
		t.Fatal("orphaned heap file from the crashed checkpoint was not swept")
	}
}

func TestCorruptManifestFailsLoudly(t *testing.T) {
	dir, _ := crashFixture(t)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt manifest should fail to open")
	}
}

func TestLegacyV1StoreRejectedWithGuidance(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacyManifest), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "legacy v1") {
		t.Fatalf("legacy store not identified: %v", err)
	}
}
