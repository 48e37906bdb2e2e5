package storage

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mirror/internal/bat"
)

// checkpointFresh writes bats as one full checkpoint through a fresh
// pool over dir (created when absent), the way a server's first
// checkpoint writes a store.
func checkpointFresh(dir string, bats map[string]*bat.BAT, extra map[string]string) error {
	p, err := OpenOrCreate(dir, Options{})
	if err != nil {
		return err
	}
	defer p.Close()
	_, err = p.Checkpoint(bats, extra)
	return err
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	b1 := bat.NewDense(0, bat.KindStr)
	b1.MustAppend(bat.OID(0), "http://a")
	b1.MustAppend(bat.OID(1), "http://b")
	b2 := bat.New(bat.KindOID, bat.KindFloat)
	b2.MustAppend(bat.OID(9), 0.5)
	b3 := bat.New(bat.KindInt, bat.KindBool)
	b3.MustAppend(int64(-3), true)

	in := map[string]*bat.BAT{"lib_source": b1, "scores": b2, "flags": b3}
	if err := checkpointFresh(dir, in, map[string]string{"schema": "define X ..."}); err != nil {
		t.Fatal(err)
	}
	out, extra, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("loaded %d BATs, want 3", len(out))
	}
	if extra["schema"] != "define X ..." {
		t.Fatalf("extra = %v", extra)
	}
	if v, ok := out["lib_source"].Find(bat.OID(1)); !ok || v.(string) != "http://b" {
		t.Fatalf("lib_source[1] = %v", v)
	}
	if v, ok := out["scores"].Find(bat.OID(9)); !ok || v.(float64) != 0.5 {
		t.Fatalf("scores[9] = %v", v)
	}
	if v, ok := out["flags"].Find(int64(-3)); !ok || v.(bool) != true {
		t.Fatalf("flags[-3] = %v", v)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	b := bat.NewDense(0, bat.KindInt)
	b.MustAppend(bat.OID(0), int64(1))
	if err := checkpointFresh(dir, map[string]*bat.BAT{"a": b}, nil); err != nil {
		t.Fatal(err)
	}
	b2 := bat.NewDense(0, bat.KindInt)
	b2.MustAppend(bat.OID(0), int64(2))
	if err := checkpointFresh(dir, map[string]*bat.BAT{"b": b2}, nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["a"]; ok {
		t.Fatal("old BAT should be gone after overwrite")
	}
	if _, ok := out["b"]; !ok {
		t.Fatal("new BAT missing")
	}
}

func TestInvalidNames(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	b := bat.New(bat.KindOID, bat.KindInt)
	for _, name := range []string{"", "../evil", "a/b", `a\b`} {
		if err := checkpointFresh(dir, map[string]*bat.BAT{name: b}, nil); err == nil {
			t.Errorf("Save with name %q should fail", name)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("loading a missing dir should fail")
	}
}

// TestLoadLeavesStoreUntouched: Load is the read-only opener, so it must
// not sweep heap files the manifest does not name yet — they may be a
// live writer's checkpoint in flight, whose manifest commit would then
// name missing files. The directory must come out byte-for-byte as it
// went in.
func TestLoadLeavesStoreUntouched(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if err := checkpointFresh(dir, sampleBATs(), map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	// A next-generation heap file written the way an in-flight
	// checkpoint writes it, before its manifest commit.
	inflight := filepath.Join(dir, batsDirName, "floats.g2.tail")
	if err := os.WriteFile(inflight, []byte("next generation"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := treeBytes(t, dir)
	if _, _, err := Load(dir); err != nil {
		t.Fatal(err)
	}
	if after := treeBytes(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("Load changed the store directory:\nbefore %v\nafter  %v", keys(before), keys(after))
	}
}

// treeBytes maps every file under dir (relative path) to its contents.
func treeBytes(t testing.TB, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func keys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
