// Package storage is the persistence layer of the Mirror DBMS: a
// Monet-style BAT buffer pool (BBP) over one store directory.
//
// A store holds a versioned MANIFEST plus one binary heap file per
// materialised BAT column under bats/ (an offset+heap file pair for
// str columns); void columns are pure manifest metadata. The Pool type
// is the API a server uses: Open/Create a store, Get BATs, and
// Checkpoint the current database — incrementally, rewriting only the
// heap files of BATs that changed since the previous checkpoint. On
// linux, 8-byte fixed-width columns load zero-copy via mmap, so a cold
// start costs O(working set) page faults rather than O(database)
// reads; other platforms use a portable read path. The pool unmaps
// only in Close, so every BAT it handed out stays readable until then.
//
// Durability invariant (the fix for the historical rename-before-fsync
// bug in this package): heap files are written tmp+fsync+rename, the
// bats/ directory is fsync'd, and only then is the new MANIFEST
// published (itself tmp+fsync+rename followed by a directory fsync).
// The manifest rename is the single commit point; a crash on either
// side of it leaves a store that opens cleanly to a checkpoint.
//
// Load is the read-only opener: it copies every BAT of the last
// checkpoint into private memory and writes nothing, so it may run
// beside a live writer. Invariant the pool relies on, documented on
// bat.BAT: Append sets the dirty bit.
package storage

import (
	"fmt"

	"mirror/internal/bat"
)

// Load reads every BAT of a store's last checkpoint. It opens the store
// read-only — unlike Open it sweeps no orphaned heap files, which may be
// a live writer's checkpoint in flight. The returned BATs own private
// memory (no mmap), so they remain valid indefinitely; long-running
// servers that want zero-copy loads and incremental checkpoints keep a
// Pool open instead.
func Load(dir string) (map[string]*bat.BAT, map[string]string, error) {
	p, err := openManifest(dir, Options{Verify: true, NoMmap: true})
	if err != nil {
		return nil, nil, err
	}
	defer p.Close()
	names := p.Names()
	bats := make(map[string]*bat.BAT, len(names))
	for _, name := range names {
		b, err := p.Get(name)
		if err != nil {
			return nil, nil, fmt.Errorf("storage: load %s: %w", dir, err)
		}
		bats[name] = b
	}
	return bats, p.Extra(), nil
}
