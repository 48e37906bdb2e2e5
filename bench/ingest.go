package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mirror/internal/core"
)

// checkpointEvery is the script's checkpoint cadence, in bursts.
const checkpointEvery = 3

// ingestReport is what the count-paced ingest script observed.
type ingestReport struct {
	docs      int           // streamed docs acknowledged and published searchable
	wall      time.Duration // script wall time
	refreshMS []float64     // per burst: Refresh RPC (time to searchable), sorted
	ckptMS    []float64     // per checkpoint, sorted
	cycleEnds []time.Time   // when each checkpoint returned
	ckptBytes int64         // heap-file bytes the checkpoints wrote
	walBytes  int64         // wal.log growth over the bursts
	merges    int           // segment merges the refreshes applied
	segments  int           // segment count after the last refresh
	storeB    int64         // store directory bytes after the final checkpoint
	storeDocs int           // docs in the store then
	attempted int
	failed    int
	err       error // first failure
}

func (r *ingestReport) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// runScript is the writer client: bursts × burst AddImage RPCs, a
// Refresh after every burst, a Checkpoint after every third. It is
// count-paced — no timers — so byte and posting counts repeat exactly.
func runScript(s *system, stream []doc, bursts, burst int, rec *recorder) (*ingestReport, error) {
	c, err := core.DialMirror(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ppms := make([][]byte, len(stream))
	for i := range stream {
		ppms[i] = stream[i].ppm()
	}
	rep := &ingestReport{}
	covered := s.store.Size()
	walPath := filepath.Join(s.dir, "wal.log")
	start := time.Now()
	for b := 0; b < bursts; b++ {
		walBefore := fileSize(walPath)
		t0 := time.Now()
		for i := b * burst; i < (b+1)*burst; i++ {
			rep.attempted++
			if _, err := c.AddImage(stream[i].URL, stream[i].Annotation, ppms[i]); err != nil {
				rep.fail(err)
			}
		}
		t1 := time.Now()
		rep.attempted++
		rr, err := c.Refresh()
		t2 := time.Now()
		covered += burst
		switch {
		case err != nil:
			rep.fail(err)
		case rr.NewDocs != burst || rr.Docs != covered:
			rep.fail(fmt.Errorf("burst %d published %d new / %d docs, want %d / %d", b, rr.NewDocs, rr.Docs, burst, covered))
		default:
			rep.docs += burst
			rep.merges += rr.Merges
			rep.segments = rr.Segments
		}
		rep.refreshMS = append(rep.refreshMS, micros(t2.Sub(t1))/1e3)
		rep.walBytes += fileSize(walPath) - walBefore
		rec.add(b, "ingest.addimage", "ingest.burst", t0, t1, map[string]int64{"docs": int64(burst)})
		rec.add(b, "ingest.refresh", "ingest.burst", t1, t2, map[string]int64{
			"new_docs": int64(rr.NewDocs), "merges": int64(rr.Merges), "segments": int64(rr.Segments)})
		end := t2
		if (b+1)%checkpointEvery == 0 {
			rep.attempted++
			cr, err := c.Checkpoint()
			end = time.Now()
			if err != nil {
				rep.fail(err)
			}
			rep.ckptMS = append(rep.ckptMS, micros(end.Sub(t2))/1e3)
			rep.cycleEnds = append(rep.cycleEnds, end)
			rep.ckptBytes += cr.Bytes
			rec.add(b, "ingest.checkpoint", "ingest.burst", t2, end, map[string]int64{
				"bytes": cr.Bytes, "bats_written": int64(cr.Written)})
			rep.storeB, rep.storeDocs = dirSize(s.dir), covered
		}
		rec.add(b, "ingest.burst", "", t0, end, nil)
	}
	rep.wall = time.Since(start)
	sort.Float64s(rep.refreshMS)
	sort.Float64s(rep.ckptMS)
	return rep, nil
}

// recovery is the restart drill's outcome.
type recovery struct {
	seconds    float64 // ClosePersistent → OpenPersistent → first answer
	walRecords int
	first      reply // the first answer, verified with the window's sample
}

// recoverStore ingests one more burst that no checkpoint covers, shuts
// the store down and reopens it: the WAL tail must replay, and the
// reopened store must hold every acknowledged document.
func recoverStore(s *system, tail []doc, acked int, text string) (*recovery, error) {
	c, err := core.DialMirror(s.addr)
	if err != nil {
		return nil, err
	}
	for i := range tail {
		if _, err := c.AddImage(tail[i].URL, tail[i].Annotation, tail[i].ppm()); err != nil {
			c.Close()
			return nil, err
		}
	}
	_, err = c.Refresh()
	c.Close()
	if err != nil {
		return nil, err
	}
	s.stopServing()
	if err := s.store.ClosePersistent(); err != nil {
		return nil, err
	}
	s.store = nil // its BATs may reference unmapped memory now

	start := time.Now()
	m, stats, err := core.OpenPersistent(core.PersistOptions{Dir: s.dir})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	s.store, s.retr = m, m
	s.setCaches(true)
	if err := s.serve(); err != nil {
		return nil, err
	}
	if c, err = core.DialMirror(s.addr); err != nil {
		return nil, err
	}
	defer c.Close()
	r, err := c.TextQueryStamped(text, topK, false)
	if err != nil {
		return nil, fmt.Errorf("first query after reopen: %w", err)
	}
	rec := &recovery{seconds: time.Since(start).Seconds(), walRecords: stats.WALRecords, first: reply{text, r}}
	if m.Size() != acked || r.EpochDocs != acked {
		return rec, fmt.Errorf("reopened store holds %d docs and serves %d, %d were acknowledged", m.Size(), r.EpochDocs, acked)
	}
	if stats.WALRecords == 0 {
		return rec, fmt.Errorf("reopen replayed no WAL record: the un-checkpointed burst was not in the log")
	}
	return rec, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0 // no WAL yet
	}
	return fi.Size()
}

func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
