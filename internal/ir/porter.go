// Package ir implements the information-retrieval substrate of the Mirror
// DBMS: text analysis (tokeniser, stop words, Porter stemmer), the
// inference-network retrieval model of InQuery (Wong & Yao's probabilistic
// inference framework with the InQuery belief function), and the CONTREP
// Moa structure that exposes the model to the query algebra, as described
// in Section 3 of the paper.
package ir

// Stem applies the Porter stemming algorithm (Porter, 1980) to a lowercase
// word. Words shorter than 3 characters are returned unchanged.
func Stem(word string) string {
	if len(word) < 3 {
		return word
	}
	w := &stemWord{b: []byte(word)}
	w.step1a()
	w.step1b()
	w.step1c()
	w.step2()
	w.step3()
	w.step4()
	w.step5a()
	w.step5b()
	return string(w.b)
}

type stemWord struct {
	b []byte
}

// isConsonant reports whether b[i] is a consonant per Porter's definition.
func (w *stemWord) isConsonant(i int) bool {
	switch w.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !w.isConsonant(i - 1)
	}
	return true
}

// measure computes m: the number of VC sequences in b[:end].
func (w *stemWord) measure(end int) int {
	m := 0
	i := 0
	// skip initial consonants
	for i < end && w.isConsonant(i) {
		i++
	}
	for i < end {
		// in vowel run
		for i < end && !w.isConsonant(i) {
			i++
		}
		if i >= end {
			break
		}
		m++
		for i < end && w.isConsonant(i) {
			i++
		}
	}
	return m
}

// hasVowel reports whether b[:end] contains a vowel.
func (w *stemWord) hasVowel(end int) bool {
	for i := 0; i < end; i++ {
		if !w.isConsonant(i) {
			return true
		}
	}
	return false
}

// endsDoubleC reports whether b[:end] ends in a double consonant.
func (w *stemWord) endsDoubleC(end int) bool {
	if end < 2 {
		return false
	}
	return w.b[end-1] == w.b[end-2] && w.isConsonant(end-1)
}

// endsCVC reports whether b[:end] ends consonant-vowel-consonant where the
// final consonant is not w, x or y.
func (w *stemWord) endsCVC(end int) bool {
	if end < 3 {
		return false
	}
	if !w.isConsonant(end-3) || w.isConsonant(end-2) || !w.isConsonant(end-1) {
		return false
	}
	c := w.b[end-1]
	return c != 'w' && c != 'x' && c != 'y'
}

// hasSuffix reports whether the word ends with s and returns the stem end.
func (w *stemWord) hasSuffix(s string) (int, bool) {
	n := len(w.b) - len(s)
	if n < 0 {
		return 0, false
	}
	if string(w.b[n:]) != s {
		return 0, false
	}
	return n, true
}

// replaceSuffix replaces suffix s with r if measure(stem) > m.
func (w *stemWord) replaceSuffix(s, r string, m int) bool {
	n, ok := w.hasSuffix(s)
	if !ok {
		return false
	}
	if w.measure(n) > m {
		w.b = append(w.b[:n], r...)
	}
	return true // suffix matched (rule consumed) even if condition failed
}

func (w *stemWord) step1a() {
	switch {
	case w.endsWith("sses"):
		w.b = w.b[:len(w.b)-2]
	case w.endsWith("ies"):
		w.b = append(w.b[:len(w.b)-3], 'i')
	case w.endsWith("ss"):
		// keep
	case w.endsWith("s"):
		w.b = w.b[:len(w.b)-1]
	}
}

func (w *stemWord) endsWith(s string) bool {
	_, ok := w.hasSuffix(s)
	return ok
}

func (w *stemWord) step1b() {
	if n, ok := w.hasSuffix("eed"); ok {
		if w.measure(n) > 0 {
			w.b = w.b[:len(w.b)-1]
		}
		return
	}
	applied := false
	if n, ok := w.hasSuffix("ed"); ok && w.hasVowel(n) {
		w.b = w.b[:n]
		applied = true
	} else if n, ok := w.hasSuffix("ing"); ok && w.hasVowel(n) {
		w.b = w.b[:n]
		applied = true
	}
	if !applied {
		return
	}
	switch {
	case w.endsWith("at"), w.endsWith("bl"), w.endsWith("iz"):
		w.b = append(w.b, 'e')
	case w.endsDoubleC(len(w.b)):
		c := w.b[len(w.b)-1]
		if c != 'l' && c != 's' && c != 'z' {
			w.b = w.b[:len(w.b)-1]
		}
	case w.measure(len(w.b)) == 1 && w.endsCVC(len(w.b)):
		w.b = append(w.b, 'e')
	}
}

func (w *stemWord) step1c() {
	if n, ok := w.hasSuffix("y"); ok && w.hasVowel(n) {
		w.b[len(w.b)-1] = 'i'
	}
}

var step2Rules = []struct{ suf, rep string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func (w *stemWord) step2() {
	for _, r := range step2Rules {
		if w.replaceSuffix(r.suf, r.rep, 0) {
			return
		}
	}
}

var step3Rules = []struct{ suf, rep string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func (w *stemWord) step3() {
	for _, r := range step3Rules {
		if w.replaceSuffix(r.suf, r.rep, 0) {
			return
		}
	}
}

// step4Suffixes is scanned longest-first; the first match consumes the rule
// whether or not its m>1 condition holds (Porter's alternatives semantics).
var step4Suffixes = []string{
	"ement", "ance", "ence", "able", "ible",
	"ment", "ant", "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize",
	"al", "er", "ic", "ou",
}

func (w *stemWord) step4() {
	for _, s := range step4Suffixes {
		if n, ok := w.hasSuffix(s); ok {
			// "ion" additionally requires the stem to end in s or t.
			if s == "ion" && !(n > 0 && (w.b[n-1] == 's' || w.b[n-1] == 't')) {
				return
			}
			if w.measure(n) > 1 {
				w.b = w.b[:n]
			}
			return
		}
	}
}

func (w *stemWord) step5a() {
	if n, ok := w.hasSuffix("e"); ok {
		m := w.measure(n)
		if m > 1 || (m == 1 && !w.endsCVC(n)) {
			w.b = w.b[:n]
		}
	}
}

func (w *stemWord) step5b() {
	if w.endsDoubleC(len(w.b)) && w.b[len(w.b)-1] == 'l' && w.measure(len(w.b)) > 1 {
		w.b = w.b[:len(w.b)-1]
	}
}
