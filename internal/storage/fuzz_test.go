package storage

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mirror/internal/bat"
)

// FuzzStoreOpen feeds the store decoders a real store whose MANIFEST and
// one heap file are replaced by fuzzed bytes. Every opener — Open with
// each load path, then Get of every BAT, and the read-only Load — must
// return an error or BATs whose head and tail lengths agree, never panic
// or fault on a mapping.
func FuzzStoreOpen(f *testing.F) {
	seedDir := filepath.Join(f.TempDir(), "seed")
	if err := checkpointFresh(seedDir, sampleBATs(), map[string]string{"k": "v"}); err != nil {
		f.Fatal(err)
	}
	seed := map[string][]byte{}
	for rel, data := range treeBytes(f, seedDir) {
		seed[rel] = []byte(data)
	}
	var heaps []string
	for rel := range seed {
		if rel != manifestName {
			heaps = append(heaps, rel)
		}
	}
	sort.Strings(heaps)
	for i, rel := range heaps {
		f.Add(seed[manifestName], uint8(i), seed[rel])
		if len(seed[rel]) > 0 {
			f.Add(seed[manifestName], uint8(i), seed[rel][:len(seed[rel])-1])
		}
	}
	f.Add([]byte(`{"version":3,"gen":1,"bats":{"x":null}}`), uint8(0), []byte{})
	f.Add([]byte(`{"version":3,"gen":1,"bats":{"x":{"head":{"kind":"void","n":-1},"tail":{"kind":"void","n":-1}}}}`), uint8(0), []byte{})
	// n·8 wraps to the (empty) file's size 0.
	f.Add([]byte(`{"version":3,"gen":1,"bats":{"x":{"head":{"kind":"void","n":2305843009213693952},"tail":{"kind":"int","n":2305843009213693952,"file":"`+filepath.Base(heaps[0])+`","size":0}}}}`), uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, manifest []byte, which uint8, heap []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, batsDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		target := heaps[int(which)%len(heaps)]
		for rel, data := range seed {
			switch rel {
			case manifestName:
				data = manifest
			case target:
				data = heap
			}
			if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Load first: it writes nothing, so the writer opens below still
		// see the fuzzed store as written.
		if bats, _, err := Load(dir); err == nil {
			for name, b := range bats {
				checkLoaded(t, name, b)
			}
		}
		for _, opts := range []Options{{}, {NoMmap: true}, {Verify: true}} {
			p, err := Open(dir, opts)
			if err != nil {
				continue
			}
			for _, name := range p.Names() {
				if b, err := p.Get(name); err == nil {
					checkLoaded(t, name, b)
				}
			}
			p.Close()
		}
	})
}

func checkLoaded(t *testing.T, name string, b *bat.BAT) {
	t.Helper()
	if h, tl := b.Head.Len(), b.Tail.Len(); h != tl || h < 0 {
		t.Fatalf("%s loaded with head length %d, tail length %d", name, h, tl)
	}
}
