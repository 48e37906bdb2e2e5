package core

import (
	"fmt"
	"sync"
)

// This file is the load harness's shadow referee. The soak invariant of
// the incremental-indexing work is: every served ranking is EXACTLY the
// ranking a one-shot build over some ingest-order prefix of the
// collection would produce. In-process soak tests pin that against a stub
// pipeline (soak_test.go); the Oracle pins it end to end over RPC, where
// the harness only sees stamped replies — it rebuilds the reference index
// for the stamped prefix and demands bit-equal scores.
//
// Annotation rankings (StmtAnnotation) are what the oracle
// verifies, and deliberately so: the paper's Section 3 getBL ranking over
// the annotation CONTREP depends only on the document set and its
// annotations — the exact integer df/N/avgdl bookkeeping — never on the
// image pipeline, the thesaurus, or feedback state. The oracle can
// therefore rebuild the reference with a trivial stand-in pipeline and no
// rasters, while the live server runs the real one, and exactness still
// holds bit for bit (pruned ≡ exhaustive, sharded ≡ single store,
// incremental ≡ one-shot are each pinned by their own differential
// suites; the oracle composes them over the wire).

// Oracle replays a scenario's ingest order and lazily builds one-shot
// reference indexes over its prefixes. Safe for concurrent use; reference
// builds are memoized per prefix (an epoch's stamped doc count), so a
// soak with many queries per publish amortises each build.
type Oracle struct {
	mu     sync.Mutex
	urls   []string
	anns   []string
	builds map[int]*Mirror
	fifo   []int // memoized prefixes, oldest first (bounded eviction)
}

// maxOracleBuilds bounds the memoized reference stores; a soak's live
// prefixes move forward, so evicting the oldest is almost always free.
const maxOracleBuilds = 8

// NewOracle returns an empty oracle; feed it documents with AddDoc in the
// exact order the harness acknowledges ingest.
func NewOracle() *Oracle {
	return &Oracle{builds: make(map[int]*Mirror)}
}

// AddDoc appends one document to the oracle's ingest order. Call it
// before (or as) the live server acknowledges the insert, so every
// stamped prefix the server can serve is already describable.
func (o *Oracle) AddDoc(url, annotation string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.urls = append(o.urls, url)
	o.anns = append(o.anns, annotation)
}

// Docs reports how many documents the oracle knows.
func (o *Oracle) Docs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.urls)
}

// prefixStore returns the memoized one-shot reference store over the
// first prefix documents, building it on miss.
func (o *Oracle) prefixStore(prefix int) (*Mirror, error) {
	o.mu.Lock()
	if prefix <= 0 || prefix > len(o.urls) {
		n := len(o.urls)
		o.mu.Unlock()
		return nil, fmt.Errorf("core: oracle has %d documents, cannot verify a prefix of %d", n, prefix)
	}
	if m, ok := o.builds[prefix]; ok {
		o.mu.Unlock()
		return m, nil
	}
	urls := o.urls[:prefix:prefix]
	anns := o.anns[:prefix:prefix]
	o.mu.Unlock()

	// Build outside the lock: concurrent verifiers may race to build the
	// same prefix (both succeed; one result is kept), but they never
	// serialise behind each other's builds.
	m, err := New()
	if err != nil {
		return nil, err
	}
	for i, u := range urls {
		if err := m.AddImage(u, anns[i], nil); err != nil {
			return nil, fmt.Errorf("core: oracle ingest %s: %w", u, err)
		}
	}
	if err := m.buildIndex(DefaultIndexOptions(), oraclePipeline{}); err != nil {
		return nil, fmt.Errorf("core: oracle build over %d docs: %w", prefix, err)
	}
	// Scenario query mixes are zipfian — hot query texts repeat against
	// the same prefix, so the reference store's own result cache pays off.
	m.SetResultCache(8 << 20)

	o.mu.Lock()
	defer o.mu.Unlock()
	if kept, ok := o.builds[prefix]; ok {
		return kept, nil
	}
	o.builds[prefix] = m
	o.fifo = append(o.fifo, prefix)
	if len(o.fifo) > maxOracleBuilds {
		delete(o.builds, o.fifo[0])
		o.fifo = o.fifo[1:]
	}
	return m, nil
}

// Expected returns the reference annotation ranking for the given ingest
// prefix: what a one-shot build over the first prefix documents answers
// for text with cut k.
func (o *Oracle) Expected(prefix int, text string, k int) ([]Hit, error) {
	m, err := o.prefixStore(prefix)
	if err != nil {
		return nil, err
	}
	hits, _, err := m.Run(Query{Stmt: StmtAnnotation, Text: text, K: k})
	return hits, err
}

// VerifyHits checks a stamped annotation reply against the reference
// ranking for its stamped prefix. The check is tie-permutation-tolerant —
// documents with equal belief may legally come back in any order (and,
// under a top-k cut, any tied subset may fill the boundary ranks), and a
// recovered sharded store renumbers global OIDs across crash gaps — so it
// demands (1) the same number of rows, (2) the exact sorted score vector,
// and (3) that every returned URL carries exactly its reference score.
// Anything else is an exactness violation: the server answered from a
// state no one-shot build over the stamped prefix could produce.
func (o *Oracle) VerifyHits(prefix int, text string, k int, got []WireHit) error {
	m, err := o.prefixStore(prefix)
	if err != nil {
		return err
	}
	// The full reference ranking, not the cut one: boundary ties under a
	// k-cut are resolved per-store, so a returned URL is judged by its
	// score in the full ranking.
	full, _, err := m.Run(Query{Stmt: StmtAnnotation, Text: text})
	if err != nil {
		return err
	}
	want := full
	if k > 0 && k < len(want) {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("core: oracle: %d hits served, reference has %d (prefix %d, query %q, k=%d)",
			len(got), len(want), prefix, text, k)
	}
	refScore := make(map[string]float64, len(full))
	for _, h := range full {
		refScore[h.URL] = h.Score
	}
	for i, g := range got {
		if g.Score != want[i].Score {
			return fmt.Errorf("core: oracle: rank %d score %v, reference %v (prefix %d, query %q)",
				i, g.Score, want[i].Score, prefix, text)
		}
		ref, ok := refScore[g.URL]
		if !ok {
			return fmt.Errorf("core: oracle: served %s which the prefix-%d reference never ranks (query %q)",
				g.URL, prefix, text)
		}
		if ref != g.Score {
			return fmt.Errorf("core: oracle: %s served with score %v, reference %v (prefix %d, query %q)",
				g.URL, g.Score, ref, prefix, text)
		}
	}
	return nil
}

// oraclePipeline is the trivial deterministic stand-in pipeline behind
// reference builds: annotation rankings are independent of image content
// words, so one segment per document assigned to a single cluster is
// enough — and it needs no rasters, which the oracle never has. fit
// returns no codebook; reference stores are one-shot by construction and
// never Refresh.
type oraclePipeline struct{}

func (oraclePipeline) features() []string { return []string{"oracle"} }
func (oraclePipeline) close()             {}

func (oraclePipeline) segment(url string) ([][][4]int, error) {
	return [][][4]int{{{0, 0, 1, 1}}}, nil
}

func (oraclePipeline) extract(url, fname string, tiles [][4]int) ([]float64, error) {
	return []float64{0}, nil
}

func (oraclePipeline) fit(data [][]float64, _, _ int, _ int64) ([]int, *SpaceCodebook, error) {
	return make([]int, len(data)), nil, nil
}
