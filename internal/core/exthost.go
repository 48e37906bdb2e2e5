package core

import "mirror/internal/media"

// RunLocalExtraction runs pipeline stages 1–3 (segmentation, feature
// extraction, AutoClass clustering) in-process over the given document
// order, returning per-document content words and the frozen codebook. An
// external engine uses it for full builds the way buildIndex does.
func RunLocalExtraction(opts IndexOptions, rasters func(url string) (*media.Image, bool), order []string) (map[string][]string, *Codebook, error) {
	pipe := newLocalPipeline(rasters)
	defer pipe.close()
	return runExtraction(pipe, opts, order)
}

// AssignLocalExtraction extracts features from the given documents and
// assigns them to the frozen codebook's existing clusters — the delta
// half of incremental refresh, as refreshWith runs it.
func AssignLocalExtraction(cb *Codebook, rasters func(url string) (*media.Image, bool), order []string) (map[string][]string, error) {
	pipe := newLocalPipeline(rasters)
	defer pipe.close()
	return assignExtraction(pipe, cb, order)
}
