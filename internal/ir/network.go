package ir

import "math"

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
func Belief(tf int, dl int, avgdl float64, df int, n int) float64 {
	if tf <= 0 || df <= 0 || n <= 0 {
		return DefaultBelief
	}
	if avgdl <= 0 {
		avgdl = 1
	}
	t := float64(tf) / (float64(tf) + 0.5 + 1.5*float64(dl)/avgdl)
	i := math.Log((float64(n)+0.5)/float64(df)) / math.Log(float64(n)+1)
	if i < 0 {
		i = 0
	}
	return DefaultBelief + (1-DefaultBelief)*t*i
}

// Stats holds the collection-level statistics CONTREP maintains (the
// `stats` argument of the paper's getBL calls).
type Stats struct {
	N             int     // number of documents
	AvgDocLen     float64 // average document length in tokens
	Terms         int     // dictionary size
	DefaultBelief float64
}
