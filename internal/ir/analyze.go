package ir

import (
	"strings"
	"unicode"
)

// stopWords is a compact English stop list (the SMART-style core set).
var stopWords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
		a about above after again all also am an and any are as at be because
		been before being below between both but by can did do does doing down
		during each few for from further had has have having he her here hers
		him his how i if in into is it its itself just me more most my no nor
		not now of off on once only or other our ours out over own same she
		should so some such than that the their theirs them then there these
		they this those through to too under until up very was we were what
		when where which while who whom why will with you your yours`) {
		stopWords[w] = true
	}
}

// Tokenize splits text into lowercase alphanumeric tokens.
func Tokenize(text string) []string {
	out := make([]string, 0, 16)
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			out = append(out, sb.String())
			sb.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			sb.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			sb.WriteRune(r)
		case r == '_':
			// keep underscores: cluster "words" like gabor_21 are single terms
			sb.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return out
}

// Analyze runs the full indexing pipeline: tokenise, drop stop words, stem.
// Both documents and queries must pass through it so term forms agree.
func Analyze(text string) []string {
	toks := Tokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if stopWords[t] {
			continue
		}
		// cluster terms (with underscores or digits) are not stemmed
		if strings.ContainsAny(t, "_0123456789") {
			out = append(out, t)
			continue
		}
		out = append(out, Stem(t))
	}
	return out
}

// TermFrequencies folds analyzed terms into a frequency map plus the total
// token count (the document length used by the belief function).
func TermFrequencies(terms []string) (map[string]int, int) {
	tf := make(map[string]int, len(terms))
	for _, t := range terms {
		tf[t]++
	}
	return tf, len(terms)
}
