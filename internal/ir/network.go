package ir

import (
	"math"

	"mirror/internal/bat"
)

// DefaultBelief is the inference network's prior belief in a concept given a
// document that contains no evidence for it (InQuery's default 0.4).
const DefaultBelief = 0.4

// Belief computes the InQuery belief bel(t|d): the probability that document
// d supports concept t, combining a tf component (Robertson-style length
// normalisation) and an idf component, scaled into [DefaultBelief, 1):
//
//	T = tf / (tf + 0.5 + 1.5·dl/avgdl)
//	I = log((N + 0.5)/df) / log(N + 1)
//	bel = DefaultBelief + (1 − DefaultBelief) · T · I
//
// A refinalize evaluates it split in three — termIDF once per term,
// lenNorm once per document, tfBelief per posting — which is this
// function's arithmetic, operation for operation.
func Belief(tf int, dl int, avgdl float64, df int, n int) float64 {
	i, ok := termIDF(df, n)
	if !ok {
		return DefaultBelief
	}
	return tfBelief(tf, lenNorm(dl, avgdl), i)
}

// termIDF is Belief's idf factor I, clamped at 0; ok is false when df or
// n is not positive, where every belief of the term is DefaultBelief.
func termIDF(df, n int) (float64, bool) {
	if df <= 0 || n <= 0 {
		return 0, false
	}
	i := math.Log((float64(n)+0.5)/float64(df)) / math.Log(float64(n)+1)
	if i < 0 {
		i = 0
	}
	return i, true
}

// lenNorm is Belief's document-length term 1.5·dl/avgdl (avgdl ≤ 0
// counts as 1).
func lenNorm(dl int, avgdl float64) float64 {
	if avgdl <= 0 {
		avgdl = 1
	}
	return 1.5 * float64(dl) / avgdl
}

// tfBelief is Belief's per-posting part: the tf component under a
// document's lenNorm, scaled by a term's termIDF.
func tfBelief(tf int, norm, idf float64) float64 {
	if tf <= 0 {
		return DefaultBelief
	}
	t := float64(tf) / (float64(tf) + 0.5 + norm)
	return DefaultBelief + (1-DefaultBelief)*t*idf
}

// beliefCalc holds Belief's factors under one set of collection
// statistics: per term the idf factor (hasIDF false: the term's beliefs
// are all DefaultBelief), per document the length norm.
type beliefCalc struct {
	idf    []float64
	hasIDF []bool
	norm   []float64
}

// belief is Belief(tf, dl(d), avgdl, df(t), n) from the precomputed
// factors; a term beyond the statistics has df 0.
func (bc *beliefCalc) belief(t int, d bat.OID, tf int64) float64 {
	if t >= len(bc.idf) || !bc.hasIDF[t] {
		return DefaultBelief
	}
	return tfBelief(int(tf), bc.norm[d], bc.idf[t])
}

// Stats holds the collection-level statistics CONTREP maintains (the
// `stats` argument of the paper's getBL calls).
type Stats struct {
	N             int     // number of documents
	AvgDocLen     float64 // average document length in tokens
	Terms         int     // dictionary size
	DefaultBelief float64
}
