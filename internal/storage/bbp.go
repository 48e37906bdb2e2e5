package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mirror/internal/bat"
)

// This file implements the BAT buffer pool (BBP): Monet kept every BAT
// in its own pair of binary heap files managed by a buffer pool, and
// persisted the database by flushing dirty BATs — never by rewriting
// the world. The Pool reproduces that design:
//
//   - one store directory holds MANIFEST (versioned JSON, replaced
//     atomically) plus a bats/ directory of generation-numbered heap
//     files, one file per materialised column (two for str columns);
//   - Checkpoint writes only BATs that are dirty (mutated, or a new
//     pointer since the last checkpoint), each via tmp+fsync+rename,
//     fsyncs bats/, and only then publishes the new MANIFEST — so a
//     crash at any instant leaves a store that opens to the previous
//     checkpoint;
//   - Get loads a BAT on demand (mmap zero-copy for 8-byte fixed-width
//     columns on linux, a portable read elsewhere). Mappings live until
//     Close: a BAT the pool handed out stays readable even after a
//     checkpoint replaces or drops it, with nothing for callers to hold.
//
// Generation-numbered file names are what make the manifest swap atomic:
// a rewritten BAT gets fresh files (name.g<N>.head, …) and the old
// generation's files are deleted only after the new MANIFEST is durable,
// so every manifest ever published references a complete, immutable set
// of heap files.

const (
	manifestName   = "MANIFEST"
	batsDirName    = "bats"
	legacyManifest = "manifest.json"
	// formatVersion is the version new manifests are written with.
	// Version 3 added the "bytes" column kind carrying compressed
	// block-postings blobs; version-2 stores (raw postings only) remain
	// readable and are upgraded in place by their first checkpoint.
	formatVersion    = 3
	minFormatVersion = 2
)

// batMeta is the manifest's description of one persisted BAT.
type batMeta struct {
	Flags uint8   `json:"flags"` // bit 0 HSorted, 1 TSorted, 2 HKey, 3 TKey
	Gen   uint64  `json:"gen"`
	Head  colMeta `json:"head"`
	Tail  colMeta `json:"tail"`
}

// manifest is the store's root metadata document.
type manifest struct {
	Version int                 `json:"version"`
	Gen     uint64              `json:"gen"`
	BATs    map[string]*batMeta `json:"bats"`
	Extra   map[string]string   `json:"extra,omitempty"`
}

// mapping is one live mmap region backing a loaded column.
type mapping struct {
	data  []byte
	close func() error
}

// Options configures a Pool.
type Options struct {
	// Verify makes every heap-file load check its CRC-32C against the
	// manifest. Sizes are always checked.
	Verify bool
	// NoMmap forces the portable read path: loaded BATs own private
	// memory and stay valid after the pool closes.
	NoMmap bool
}

// Pool is a persistent BAT buffer pool over one store directory.
type Pool struct {
	dir  string
	opts Options

	mu  sync.Mutex
	man *manifest
	// live holds the BAT each name last loaded or checkpointed as: a
	// checkpoint skips a name whose BAT is still this pointer and clean.
	live map[string]*bat.BAT
	// maps holds every mmap region the pool ever made. Close is the only
	// place they are unmapped, which is what keeps a replaced or dropped
	// BAT's columns valid for a reader that still holds it.
	maps []mapping
}

// CheckpointStats reports what one checkpoint did.
type CheckpointStats struct {
	Written int   // BATs whose heap files were rewritten
	Skipped int   // clean BATs carried over without touching their files
	Bytes   int64 // heap-file bytes written
}

// IsStore reports whether dir holds a (v2) BAT-buffer-pool store — i.e.
// a published MANIFEST exists. Layout detection belongs here, next to
// the format it detects: core's sharded engine and cmd/mirrord use it to
// distinguish a standalone store root from a sharded one (whose members
// live in subdirectories, each its own store).
func IsStore(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Create initialises an empty store at dir (which must not already hold
// one) and returns its pool.
func Create(dir string, opts Options) (*Pool, error) {
	if err := os.MkdirAll(filepath.Join(dir, batsDirName), 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("storage: %s already holds a store", dir)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyManifest)); err == nil {
		return nil, fmt.Errorf("storage: %s is a legacy v1 store (manifest.json), which this version cannot read; move it aside (or delete it and re-ingest) before using this directory", dir)
	}
	p := &Pool{
		dir:  dir,
		opts: opts,
		man:  &manifest{Version: formatVersion, BATs: map[string]*batMeta{}},
		live: map[string]*bat.BAT{},
	}
	if err := p.writeManifestLocked(); err != nil {
		return nil, err
	}
	return p, nil
}

// Open opens an existing store for writing: heap files no manifest
// entry references (a crashed checkpoint's leftovers) are deleted.
func Open(dir string, opts Options) (*Pool, error) {
	p, err := openManifest(dir, opts)
	if err != nil {
		return nil, err
	}
	p.removeOrphansLocked()
	return p, nil
}

// openManifest reads and validates dir's MANIFEST. It changes nothing on
// disk, so a reader may open a store a live writer is checkpointing.
func openManifest(dir string, opts Options) (*Pool, error) {
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			if _, lerr := os.Stat(filepath.Join(dir, legacyManifest)); lerr == nil {
				return nil, fmt.Errorf("storage: %s is a legacy v1 store (manifest.json), which this version cannot read; move it aside (or delete it and re-ingest) to start a v2 store here", dir)
			}
		}
		return nil, fmt.Errorf("storage: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("storage: parse manifest: %w", err)
	}
	if m.Version < minFormatVersion || m.Version > formatVersion {
		return nil, fmt.Errorf("storage: unsupported store version %d (want %d..%d)", m.Version, minFormatVersion, formatVersion)
	}
	if m.BATs == nil {
		m.BATs = map[string]*batMeta{}
	}
	for name, bm := range m.BATs {
		if bm == nil {
			return nil, fmt.Errorf("storage: manifest: BAT %q has no description", name)
		}
	}
	return &Pool{dir: dir, opts: opts, man: &m, live: map[string]*bat.BAT{}}, nil
}

// OpenOrCreate opens dir as a store, initialising it when empty.
func OpenOrCreate(dir string, opts Options) (*Pool, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return Open(dir, opts)
	}
	return Create(dir, opts)
}

// Names lists the BATs in the last checkpoint, sorted.
func (p *Pool) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.man.BATs))
	for n := range p.man.BATs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Extra returns the opaque metadata stored with the last checkpoint.
func (p *Pool) Extra() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.man.Extra))
	for k, v := range p.man.Extra {
		out[k] = v
	}
	return out
}

// Get returns the named BAT, loading it from its heap files on first
// use. A BAT loaded through mmap stays valid until Close.
func (p *Pool) Get(name string) (*bat.BAT, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.live[name]; ok {
		return b, nil
	}
	bm, ok := p.man.BATs[name]
	if !ok {
		return nil, fmt.Errorf("storage: no BAT %q in store %s", name, p.dir)
	}
	bdir := filepath.Join(p.dir, batsDirName)
	mmapOK := !p.opts.NoMmap
	head, hm, err := loadColumn(bdir, bm.Head, mmapOK, p.opts.Verify)
	if err != nil {
		return nil, fmt.Errorf("storage: load %s head: %w", name, err)
	}
	tail, tm, err := loadColumn(bdir, bm.Tail, mmapOK, p.opts.Verify)
	if err != nil {
		for _, m := range hm {
			m.close()
		}
		return nil, fmt.Errorf("storage: load %s tail: %w", name, err)
	}
	b, err := bat.FromColumns(head, tail,
		bm.Flags&1 != 0, bm.Flags&2 != 0, bm.Flags&4 != 0, bm.Flags&8 != 0)
	if err != nil {
		for _, m := range append(hm, tm...) {
			m.close()
		}
		return nil, fmt.Errorf("storage: load %s: %w", name, err)
	}
	p.maps = append(p.maps, append(hm, tm...)...)
	p.live[name] = b
	return b, nil
}

// flagsOf packs a BAT's property flags.
func flagsOf(b *bat.BAT) uint8 {
	var f uint8
	if b.HSorted {
		f |= 1
	}
	if b.TSorted {
		f |= 2
	}
	if b.HKey {
		f |= 4
	}
	if b.TKey {
		f |= 8
	}
	return f
}

// Checkpoint makes bats (plus the opaque extra metadata) the store's
// durable contents. Only dirty BATs — mutated since the last
// checkpoint, or bound to a name for the first time — have their heap
// files rewritten; clean BATs are carried over by reference. BATs no
// longer present in the map are dropped from the store.
//
// Durability guarantee: every heap file is written to a temp name,
// fsync'd, and renamed; the bats/ directory is fsync'd; then the new
// MANIFEST is written, fsync'd, and renamed over the old one, and the
// store directory fsync'd. The manifest rename is the commit point — a
// crash before it leaves the previous checkpoint intact, a crash after
// it leaves the new one. Old-generation files are deleted only after
// the commit point.
func (p *Pool) Checkpoint(bats map[string]*bat.BAT, extra map[string]string) (CheckpointStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var st CheckpointStats

	names := make([]string, 0, len(bats))
	for name := range bats {
		if err := validName(name); err != nil {
			return st, err
		}
		names = append(names, name)
	}
	sort.Strings(names)

	p.man.Gen++
	gen := p.man.Gen
	bdir := filepath.Join(p.dir, batsDirName)
	newBATs := make(map[string]*batMeta, len(names))
	var obsolete []string // old-generation files to remove after commit

	for _, name := range names {
		b := bats[name]
		old, had := p.man.BATs[name]
		if had && !b.Dirty() && p.live[name] == b {
			newBATs[name] = old
			st.Skipped++
			continue
		}
		stem := fmt.Sprintf("%s.g%d", name, gen)
		hm, err := writeColumn(bdir, stem+".head", b.Head)
		if err != nil {
			return st, err
		}
		tm, err := writeColumn(bdir, stem+".tail", b.Tail)
		if err != nil {
			return st, err
		}
		newBATs[name] = &batMeta{Flags: flagsOf(b), Gen: gen, Head: hm, Tail: tm}
		st.Written++
		st.Bytes += hm.Size + hm.HeapSize + tm.Size + tm.HeapSize
		if had {
			obsolete = append(obsolete, metaFiles(old)...)
		}
	}
	// BATs dropped from the database: their files become garbage.
	for name, old := range p.man.BATs {
		if _, keep := newBATs[name]; !keep {
			obsolete = append(obsolete, metaFiles(old)...)
		}
	}

	if st.Written > 0 {
		if err := fsyncDir(bdir); err != nil {
			return st, err
		}
	}

	oldBATs, oldExtra, oldGen, oldVer := p.man.BATs, p.man.Extra, p.man.Gen, p.man.Version
	p.man.BATs = newBATs
	p.man.Extra = extra
	// A checkpoint rewrites the manifest wholesale, so it also upgrades
	// version-2 stores to the current format in the same atomic commit.
	p.man.Version = formatVersion
	if err := p.writeManifestLocked(); err != nil {
		// Restore the full in-memory manifest so it matches the durable
		// one (Gen was bumped at the top of this checkpoint attempt).
		p.man.BATs, p.man.Extra, p.man.Gen, p.man.Version = oldBATs, oldExtra, oldGen, oldVer
		return st, err
	}

	// Commit point passed: retire old generations and adopt the BATs.
	// A replaced or dropped BAT's mappings stay open until Close (the
	// unlinked files live on behind them), so an epoch still reading it
	// is safe.
	for _, f := range obsolete {
		os.Remove(filepath.Join(bdir, f))
	}
	for _, name := range names {
		bats[name].ClearDirty()
		p.live[name] = bats[name]
	}
	for name := range p.live {
		if _, keep := newBATs[name]; !keep {
			delete(p.live, name)
		}
	}
	return st, nil
}

// metaFiles lists the heap files a batMeta references.
func metaFiles(bm *batMeta) []string {
	var fs []string
	for _, cm := range []colMeta{bm.Head, bm.Tail} {
		if cm.File != "" {
			fs = append(fs, cm.File)
		}
		if cm.Heap != "" {
			fs = append(fs, cm.Heap)
		}
	}
	return fs
}

// writeManifestLocked atomically publishes the manifest: tmp file,
// fsync, rename, fsync store directory.
func (p *Pool) writeManifestLocked() error {
	mb, err := json.MarshalIndent(p.man, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: marshal manifest: %w", err)
	}
	path := filepath.Join(p.dir, manifestName)
	if _, err := writeHeapFile(path, mb); err != nil {
		return err
	}
	return fsyncDir(p.dir)
}

// removeOrphansLocked deletes heap files in bats/ that no manifest
// entry references — leftovers of a checkpoint that crashed before its
// commit point (or after it, before cleanup finished).
func (p *Pool) removeOrphansLocked() {
	referenced := map[string]bool{}
	for _, bm := range p.man.BATs {
		for _, f := range metaFiles(bm) {
			referenced[f] = true
		}
	}
	bdir := filepath.Join(p.dir, batsDirName)
	des, err := os.ReadDir(bdir)
	if err != nil {
		return
	}
	for _, de := range des {
		if !referenced[de.Name()] {
			os.Remove(filepath.Join(bdir, de.Name()))
		}
	}
}

// Close unmaps every region the pool mapped. BATs loaded through the
// mmap path must not be used afterwards; the core layer keeps its pool
// open for the life of the process.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	for _, m := range p.maps {
		if err := m.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.maps = nil
	clear(p.live)
	return firstErr
}

// Dir reports the store directory.
func (p *Pool) Dir() string { return p.dir }

// fsyncDir fsyncs a directory so renames and file creations within it
// are durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: fsync dir %s: %w", dir, err)
	}
	return nil
}

// validName rejects BAT names that would escape the store directory.
func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return fmt.Errorf("storage: invalid BAT name %q", name)
	}
	return nil
}
