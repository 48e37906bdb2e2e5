package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mirror/internal/cluster"
	"mirror/internal/daemon"
	"mirror/internal/dict"
	"mirror/internal/feature"
	"mirror/internal/media"
	"mirror/internal/thesaurus"
)

// IndexOptions parameterise the extraction pipeline.
type IndexOptions struct {
	Seed       int64
	KMin, KMax int      // AutoClass class search range per feature space
	Features   []string // extractor names; nil = the full demo daemon set
}

// DefaultIndexOptions matches the demo configuration.
func DefaultIndexOptions() IndexOptions {
	return IndexOptions{Seed: 1, KMin: 2, KMax: 8}
}

// segmentExtractor abstracts "local function call" vs "remote daemon" so
// the same pipeline drives both; the paper's point is exactly that these
// are interchangeable behind the daemon abstraction. fit returns the
// fitted codebook when the implementation can expose it (the in-process
// pipeline); daemons that only return assignments yield a nil codebook,
// which disables incremental Refresh until the next local full build.
type segmentExtractor interface {
	segment(url string) (tiles [][][4]int, err error)
	extract(url string, featureName string, tiles [][4]int) ([]float64, error)
	fit(data [][]float64, kmin, kmax int, seed int64) ([]int, *SpaceCodebook, error)
	features() []string
	close()
}

// SpaceCodebook freezes one feature space's clustering: the
// standardisation parameters and the fitted mixture model. Assign maps a
// raw feature vector to its cluster exactly as the full build did.
type SpaceCodebook struct {
	Means []float64      `json:"means"`
	Stds  []float64      `json:"stds"`
	Model *cluster.Model `json:"model"`
}

// AssignAll returns the cluster index of every raw (unstandardised)
// vector.
func (sc *SpaceCodebook) AssignAll(xs [][]float64) []int {
	std := make([][]float64, len(xs))
	for i, x := range xs {
		std[i] = cluster.ApplyStandardize(x, sc.Means, sc.Stds)
	}
	return sc.Model.AssignAll(std)
}

// Codebook freezes the whole content-model of a full build — one
// SpaceCodebook per feature space. Delta refreshes extract features from
// new documents and Assign them to the existing clusters, so incremental
// content words stay comparable with the indexed collection; discovering
// NEW clusters requires an explicit offline BuildContentIndex. Persisted
// in the store manifest so refreshes keep working across restarts.
type Codebook struct {
	Features []string                  `json:"features"`
	Spaces   map[string]*SpaceCodebook `json:"spaces"`
}

// BuildContentIndex runs the full Section 5.1 pipeline in-process:
// segmentation, the six feature daemons, AutoClass clustering per feature
// space, CONTREP indexing of the resulting cluster words, and thesaurus
// construction.
func (m *Mirror) BuildContentIndex(opts IndexOptions) error {
	return m.buildIndex(opts, newLocalPipeline(m.rasterLookup()))
}

// BuildContentIndexDistributed runs the same pipeline against daemons
// discovered through the distributed data dictionary (Figure 1).
func (m *Mirror) BuildContentIndexDistributed(opts IndexOptions, dictAddr string) error {
	p, err := newRemotePipeline(m.rasterLookup(), dictAddr)
	if err != nil {
		return err
	}
	return m.buildIndex(opts, p)
}

// rasterLookup exposes the raster store to a pipeline. The lookup is
// lock-free: it only runs inside buildIndex, which holds m.mu for the
// whole build (a ShardedEngine build instead goes through Raster, which
// takes each shard's read lock).
func (m *Mirror) rasterLookup() func(url string) (*media.Image, bool) {
	return func(url string) (*media.Image, bool) {
		img, ok := m.rasters[url]
		return img, ok
	}
}

// buildIndex drives the pipeline over the ingested items and populates the
// internal schema, publishing the result as a fresh single-segment epoch.
// Full builds are the explicit offline re-clustering operation: they hold
// the write lock for the duration (inserts queue), while queries keep
// serving the previous epoch untouched.
func (m *Mirror) buildIndex(opts IndexOptions, pipe segmentExtractor) error {
	defer pipe.close()
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.follower {
		return ErrFollower
	}

	imageWords, cb, err := runExtraction(pipe, opts, m.order)
	if err != nil {
		return err
	}
	thDocs, err := m.populateContentLocked(imageWords, nil, nil)
	if err != nil {
		return err
	}
	m.Thes = thesaurus.Build(thDocs)
	m.codebook = cb
	m.indexed = true
	return m.publishEpochLocked()
}

// extractFeatures is stage 1 of the pipeline: segmentation plus feature
// extraction over the given document order. Both stages are
// embarrassingly parallel per item/segment; they fan out over up to
// GOMAXPROCS workers with results collected positionally, so the
// populated schema is identical to a serial run. The extractors, the
// segmenter, and the daemon RPC clients are all safe for concurrent use.
func extractFeatures(pipe segmentExtractor, featureNames, order []string) (segURLs []string, perFeature map[string][][]float64, err error) {
	perImage := make([][][][4]int, len(order))
	segErrs := make([]error, len(order))
	parallelEach(len(order), func(idx int) error {
		perImage[idx], segErrs[idx] = pipe.segment(order[idx])
		return segErrs[idx]
	})
	segTiles := make([][][4]int, 0)
	for idx, url := range order {
		if segErrs[idx] != nil {
			return nil, nil, fmt.Errorf("core: segmenting %s: %w", url, segErrs[idx])
		}
		for _, tl := range perImage[idx] {
			segURLs = append(segURLs, url)
			segTiles = append(segTiles, tl)
		}
	}
	perFeature = map[string][][]float64{}
	for _, fname := range featureNames {
		vecs := make([][]float64, len(segURLs))
		extErrs := make([]error, len(segURLs))
		parallelEach(len(segURLs), func(si int) error {
			vecs[si], extErrs[si] = pipe.extract(segURLs[si], fname, segTiles[si])
			return extErrs[si]
		})
		for si, err := range extErrs {
			if err != nil {
				return nil, nil, fmt.Errorf("core: extracting %s from %s: %w", fname, segURLs[si], err)
			}
		}
		perFeature[fname] = vecs
	}
	return segURLs, perFeature, nil
}

// runExtraction is stages 1–3 of the pipeline, independent of any one
// store: segmentation, feature extraction and AutoClass clustering over
// the given document order, returning each document's content words (with
// duplicates; callers dedup at insert) plus the frozen codebook (nil when
// the clustering daemon cannot expose its models). A ShardedEngine runs
// it ONCE over the global order — clustering is collection-global, so
// per-shard fits would assign different cluster words than a single
// store.
func runExtraction(pipe segmentExtractor, opts IndexOptions, order []string) (map[string][]string, *Codebook, error) {
	if opts.KMin <= 0 {
		opts.KMin = 2
	}
	if opts.KMax < opts.KMin {
		opts.KMax = opts.KMin + 6
	}
	featureNames := opts.Features
	if featureNames == nil {
		featureNames = pipe.features()
	}
	segURLs, perFeature, err := extractFeatures(pipe, featureNames, order)
	if err != nil {
		return nil, nil, err
	}

	// 2. AutoClass clustering per feature space; each (feature, cluster)
	// pair becomes a content "word" such as gabor_3. Feature spaces are
	// independent, so they fit concurrently; the words append serially in
	// feature order afterwards to keep per-segment word order stable.
	assigns := make([][]int, len(featureNames))
	books := make([]*SpaceCodebook, len(featureNames))
	fitErrs := make([]error, len(featureNames))
	parallelEach(len(featureNames), func(fi int) error {
		assigns[fi], books[fi], fitErrs[fi] = pipe.fit(perFeature[featureNames[fi]], opts.KMin, opts.KMax, opts.Seed)
		return fitErrs[fi]
	})
	segWords := make([][]string, len(segURLs))
	cb := &Codebook{Features: append([]string(nil), featureNames...), Spaces: map[string]*SpaceCodebook{}}
	for fi, fname := range featureNames {
		if fitErrs[fi] != nil {
			return nil, nil, fmt.Errorf("core: clustering %s: %w", fname, fitErrs[fi])
		}
		for si, cl := range assigns[fi] {
			segWords[si] = append(segWords[si], fmt.Sprintf("%s_%d", fname, cl))
		}
		if books[fi] != nil {
			cb.Spaces[fname] = books[fi]
		}
	}
	if len(cb.Spaces) != len(featureNames) {
		cb = nil // a daemon kept its model: incremental assignment impossible
	}

	// 3. per-image content terms: the union of its segments' words.
	imageWords := make(map[string][]string, len(order))
	for si, url := range segURLs {
		imageWords[url] = append(imageWords[url], segWords[si]...)
	}
	return imageWords, cb, nil
}

// assignExtraction is the delta-refresh variant of runExtraction: stage 1
// runs as usual over the new documents, but stage 2 ASSIGNS every segment
// to the frozen codebook's existing clusters instead of refitting — the
// content vocabulary cannot drift between refreshes, which is what keeps
// incremental documents comparable with the indexed collection.
func assignExtraction(pipe segmentExtractor, cb *Codebook, order []string) (map[string][]string, error) {
	segURLs, perFeature, err := extractFeatures(pipe, cb.Features, order)
	if err != nil {
		return nil, err
	}
	segWords := make([][]string, len(segURLs))
	for _, fname := range cb.Features {
		sc := cb.Spaces[fname]
		if sc == nil || sc.Model == nil {
			return nil, fmt.Errorf("core: codebook has no model for feature %q", fname)
		}
		for si, cl := range sc.AssignAll(perFeature[fname]) {
			segWords[si] = append(segWords[si], fmt.Sprintf("%s_%d", fname, cl))
		}
	}
	imageWords := make(map[string][]string, len(order))
	for si, url := range segURLs {
		imageWords[url] = append(imageWords[url], segWords[si]...)
	}
	return imageWords, nil
}

// populateContentLocked is stage 4: rebuild the internal set from the
// per-document content words and finalize the CONTREPs. annDict/imgDict,
// when non-nil, are unioned into the respective dictionaries before
// Finalize — a sharded build passes the global vocabulary so every shard
// agrees on what is in-dictionary (its statistics overrides are registered
// by the engine beforehand). Returns the thesaurus training docs in local
// document order; callers hold m.mu.
func (m *Mirror) populateContentLocked(imageWords map[string][]string, annDict, imgDict []string) ([]thesaurus.Doc, error) {
	docs := make([]walDoc, len(m.order))
	for i, url := range m.order {
		docs[i] = walDoc{URL: url, Words: imageWords[url]}
	}
	return m.populateCoveredLocked(docs, annDict, imgDict)
}

// populateShardIndex is the per-shard half of a sharded index build: the
// engine has computed content words and registered the global statistics
// overrides; this installs the shard's slice and marks it indexed. The
// engine owns the thesaurus.
func (m *Mirror) populateShardIndex(imageWords map[string][]string, annDict, imgDict []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.populateContentLocked(imageWords, annDict, imgDict); err != nil {
		return err
	}
	m.indexed = true
	return nil
}

// parallelEach runs f(i) for every i in [0, n) on up to GOMAXPROCS
// workers. It is one of the two fan-outs inside a single request, both in
// the content pipeline; the other is cluster.Select, which fits a feature
// space's k range concurrently inside one of these workers. Pipeline items
// are few but each costs milliseconds of image work, so even two are worth
// a goroutine (query operators, by contrast, run on the caller's
// goroutine). A non-nil return from f stops the dispatch of further items —
// matching the serial loops this replaced, which aborted at first failure —
// though items already in flight still finish.
func parallelEach(n int, f func(i int) error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if f(i) != nil {
				return
			}
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	var failed atomic.Bool
	next.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if f(i) != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func dedupSorted(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	var prev string
	for i, s := range in {
		if i == 0 || s != prev {
			out = append(out, s)
		}
		prev = s
	}
	return out
}

// ---- local pipeline ----

type localPipeline struct {
	rasters func(url string) (*media.Image, bool)
	seg     *feature.Segmenter
	exs     map[string]feature.Extractor
}

func newLocalPipeline(rasters func(url string) (*media.Image, bool)) *localPipeline {
	p := &localPipeline{rasters: rasters, seg: feature.NewSegmenter(), exs: map[string]feature.Extractor{}}
	for _, ex := range feature.All() {
		p.exs[ex.Name()] = ex
	}
	return p
}

func (p *localPipeline) features() []string {
	names := make([]string, 0, len(p.exs))
	for n := range p.exs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (p *localPipeline) segment(url string) ([][][4]int, error) {
	img, ok := p.rasters(url)
	if !ok {
		return nil, fmt.Errorf("core: no raster for %s", url)
	}
	segs := p.seg.Segment(img)
	out := make([][][4]int, len(segs))
	for i, s := range segs {
		out[i] = s.Tiles
	}
	return out, nil
}

func (p *localPipeline) extract(url, fname string, tiles [][4]int) ([]float64, error) {
	img, ok := p.rasters(url)
	if !ok {
		return nil, fmt.Errorf("core: no raster for %s", url)
	}
	ex, ok := p.exs[fname]
	if !ok {
		return nil, fmt.Errorf("core: unknown feature %q", fname)
	}
	seg := &feature.Segment{Tiles: tiles}
	return seg.ExtractAveraged(img, ex), nil
}

func (p *localPipeline) fit(data [][]float64, kmin, kmax int, seed int64) ([]int, *SpaceCodebook, error) {
	std, means, stds := cluster.Standardize(data)
	model, err := cluster.Select(std, kmin, kmax, seed)
	if err != nil {
		return nil, nil, err
	}
	// Standardize built std with ApplyStandardize, so these are the rows
	// SpaceCodebook.AssignAll(data) would standardise again.
	return model.AssignAll(std), &SpaceCodebook{Means: means, Stds: stds, Model: model}, nil
}

func (p *localPipeline) close() {}

// ---- remote (Figure 1) pipeline ----

type remotePipeline struct {
	rasters      func(url string) (*media.Image, bool)
	segClient    *daemon.Client
	featClients  map[string]*daemon.Client
	clustClient  *daemon.Client
	ppmMu        sync.Mutex // guards the ppmCache map under parallelEach
	ppmCache     map[string]*ppmEntry
	featureNames []string
}

// ppmEntry is a singleflight cache slot: the map mutex is held only for the
// lookup, and the CPU-bound encode runs once per URL outside it, so
// concurrent workers encoding different images overlap.
type ppmEntry struct {
	once sync.Once
	data []byte
	err  error
}

func newRemotePipeline(rasters func(url string) (*media.Image, bool), dictAddr string) (*remotePipeline, error) {
	dc, err := dict.Dial(dictAddr)
	if err != nil {
		return nil, err
	}
	defer dc.Close()
	p := &remotePipeline{rasters: rasters, featClients: map[string]*daemon.Client{}, ppmCache: map[string]*ppmEntry{}}

	segs, err := dc.List("segmenter")
	if err != nil || len(segs) == 0 {
		return nil, fmt.Errorf("core: no segmenter daemon registered (%v)", err)
	}
	p.segClient, err = daemon.Dial(segs[0])
	if err != nil {
		return nil, err
	}
	feats, err := dc.List("feature")
	if err != nil || len(feats) == 0 {
		return nil, fmt.Errorf("core: no feature daemons registered (%v)", err)
	}
	for _, fi := range feats {
		c, err := daemon.Dial(fi)
		if err != nil {
			return nil, err
		}
		for _, name := range fi.Provides {
			p.featClients[name] = c
			p.featureNames = append(p.featureNames, name)
		}
	}
	sort.Strings(p.featureNames)
	clusters, err := dc.List("cluster")
	if err != nil || len(clusters) == 0 {
		return nil, fmt.Errorf("core: no cluster daemon registered (%v)", err)
	}
	p.clustClient, err = daemon.Dial(clusters[0])
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *remotePipeline) features() []string { return p.featureNames }

func (p *remotePipeline) ppm(url string) ([]byte, error) {
	p.ppmMu.Lock()
	e, ok := p.ppmCache[url]
	if !ok {
		e = &ppmEntry{}
		p.ppmCache[url] = e
	}
	p.ppmMu.Unlock()
	e.once.Do(func() {
		img, ok := p.rasters(url)
		if !ok {
			e.err = fmt.Errorf("core: no raster for %s", url)
			return
		}
		var buf bytes.Buffer
		if err := img.EncodePPM(&buf); err != nil {
			e.err = err
			return
		}
		e.data = buf.Bytes()
	})
	return e.data, e.err
}

func (p *remotePipeline) segment(url string) ([][][4]int, error) {
	ppm, err := p.ppm(url)
	if err != nil {
		return nil, err
	}
	reply, err := p.segClient.Segment(ppm)
	if err != nil {
		return nil, err
	}
	return reply.Tiles, nil
}

func (p *remotePipeline) extract(url, fname string, tiles [][4]int) ([]float64, error) {
	c, ok := p.featClients[fname]
	if !ok {
		return nil, fmt.Errorf("core: no daemon provides feature %q", fname)
	}
	ppm, err := p.ppm(url)
	if err != nil {
		return nil, err
	}
	return c.Extract(ppm, tiles)
}

// fit against the clustering daemon returns assignments only — the wire
// protocol does not ship models — so distributed builds publish a nil
// codebook and Refresh stays unavailable until a local full build.
func (p *remotePipeline) fit(data [][]float64, kmin, kmax int, seed int64) ([]int, *SpaceCodebook, error) {
	reply, err := p.clustClient.Fit(data, kmin, kmax, seed)
	if err != nil {
		return nil, nil, err
	}
	return reply.Assign, nil, nil
}

func (p *remotePipeline) close() {
	if p.segClient != nil {
		p.segClient.Close()
	}
	closed := map[*daemon.Client]bool{}
	for _, c := range p.featClients {
		if !closed[c] {
			closed[c] = true
			c.Close()
		}
	}
	if p.clustClient != nil {
		p.clustClient.Close()
	}
}
