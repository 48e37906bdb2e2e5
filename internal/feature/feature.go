// Package feature implements the image analysis daemons of the demo
// system: a grid-and-merge segmenter and six feature extractors — two
// colour-histogram daemons (the paper implemented two) and four texture
// algorithms standing in for the MeasTex reference implementations (Gabor
// filter bank, grey-level co-occurrence, autocorrelation, fractal
// box-counting). Every extractor is deterministic.
package feature

import (
	"fmt"
	"math"

	"mirror/internal/media"
)

// Extractor computes a fixed-dimension feature vector from an image region.
type Extractor interface {
	Name() string
	Dim() int
	Extract(img *media.Image) []float64
}

// All returns the full daemon set of the demo prototype.
func All() []Extractor {
	return []Extractor{
		NewRGBHistogram("rgb_coarse", 2),
		NewRGBHistogram("rgb_fine", 4),
		NewGabor(),
		NewGLCM(),
		NewAutocorrelation(),
		NewFractal(),
	}
}

// ByName resolves an extractor.
func ByName(name string) (Extractor, error) {
	for _, e := range All() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("feature: unknown extractor %q", name)
}

// ---- colour histogram daemons ----

// RGBHistogram bins pixels into bins³ colour cells, normalised to sum 1,
// with the mean channel values appended (helps separate classes whose
// histograms collide at coarse binnings).
type RGBHistogram struct {
	name string
	bins int
}

// NewRGBHistogram builds a histogram daemon with the given per-channel bin
// count.
func NewRGBHistogram(name string, bins int) *RGBHistogram {
	return &RGBHistogram{name: name, bins: bins}
}

// Name implements Extractor.
func (h *RGBHistogram) Name() string { return h.name }

// Dim implements Extractor.
func (h *RGBHistogram) Dim() int { return h.bins*h.bins*h.bins + 3 }

// Extract implements Extractor.
func (h *RGBHistogram) Extract(img *media.Image) []float64 {
	out := make([]float64, h.Dim())
	n := len(img.Pix)
	if n == 0 {
		return out
	}
	var mr, mg, mb float64
	for _, p := range img.Pix {
		r := int(p.R) * h.bins / 256
		g := int(p.G) * h.bins / 256
		b := int(p.B) * h.bins / 256
		out[(r*h.bins+g)*h.bins+b]++
		mr += float64(p.R)
		mg += float64(p.G)
		mb += float64(p.B)
	}
	for i := 0; i < h.bins*h.bins*h.bins; i++ {
		out[i] /= float64(n)
	}
	base := h.bins * h.bins * h.bins
	out[base] = mr / float64(n) / 255
	out[base+1] = mg / float64(n) / 255
	out[base+2] = mb / float64(n) / 255
	return out
}

// ---- Gabor filter bank ----

// Gabor convolves the luma plane with a bank of Gabor kernels (4
// orientations × 2 scales) and reports the mean response magnitude per
// filter — the classic MeasTex-style texture signature.
type Gabor struct {
	kernels [][]float64
	size    int
}

// NewGabor builds the 8-filter bank (kernel size 9).
func NewGabor() *Gabor {
	g := &Gabor{size: 9}
	orients := []float64{0, math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4}
	freqs := []float64{0.15, 0.35}
	for _, f := range freqs {
		for _, th := range orients {
			g.kernels = append(g.kernels, gaborKernel(g.size, f, th, 2.2))
		}
	}
	return g
}

// gaborKernel builds a real Gabor kernel (cosine carrier, gaussian
// envelope), zero-mean normalised.
func gaborKernel(size int, freq, theta, sigma float64) []float64 {
	k := make([]float64, size*size)
	half := size / 2
	var sum float64
	for y := -half; y <= half; y++ {
		for x := -half; x <= half; x++ {
			xr := float64(x)*math.Cos(theta) + float64(y)*math.Sin(theta)
			env := math.Exp(-(float64(x*x + y*y)) / (2 * sigma * sigma))
			v := env * math.Cos(2*math.Pi*freq*xr)
			k[(y+half)*size+(x+half)] = v
			sum += v
		}
	}
	// zero-mean so flat regions respond with 0
	mean := sum / float64(size*size)
	for i := range k {
		k[i] -= mean
	}
	return k
}

// Name implements Extractor.
func (g *Gabor) Name() string { return "gabor" }

// Dim implements Extractor.
func (g *Gabor) Dim() int { return len(g.kernels) }

// Extract implements Extractor.
func (g *Gabor) Extract(img *media.Image) []float64 {
	out := make([]float64, g.Dim())
	if img.W < g.size || img.H < g.size {
		return out
	}
	half := g.size / 2
	// subsample convolution centres for speed: stride 2
	var count float64
	for y := half; y < img.H-half; y += 2 {
		for x := half; x < img.W-half; x += 2 {
			for ki, k := range g.kernels {
				var resp float64
				idx := 0
				for dy := -half; dy <= half; dy++ {
					for dx := -half; dx <= half; dx++ {
						resp += k[idx] * img.Gray(x+dx, y+dy)
						idx++
					}
				}
				out[ki] += math.Abs(resp)
			}
			count++
		}
	}
	if count > 0 {
		for i := range out {
			out[i] /= count * 255
		}
	}
	return out
}

// ---- grey-level co-occurrence (Haralick) ----

// GLCM computes a 16-level co-occurrence matrix at offsets (1,0) and (0,1)
// and reports contrast, energy, entropy, homogeneity and correlation per
// offset (10 dimensions).
type GLCM struct{ levels int }

// NewGLCM builds the 16-level Haralick extractor.
func NewGLCM() *GLCM { return &GLCM{levels: 16} }

// Name implements Extractor.
func (g *GLCM) Name() string { return "glcm" }

// Dim implements Extractor.
func (g *GLCM) Dim() int { return 10 }

// Extract implements Extractor.
func (g *GLCM) Extract(img *media.Image) []float64 {
	// Quantise every pixel once; both offsets read the same levels. A
	// pipeline tile fits the stack buffer, larger rasters allocate.
	var qbuf [64]uint8
	var q []uint8
	if n := img.W * img.H; n <= len(qbuf) {
		q = qbuf[:n]
	} else {
		q = make([]uint8, n)
	}
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			q[y*img.W+x] = uint8(int(img.Gray(x, y)) * g.levels / 256)
		}
	}
	out := make([]float64, 0, g.Dim())
	var cells [32]glcmCell
	out = g.haralick(out, q, img.W, img.H, 1, 0, cells[:0])
	out = g.haralick(out, q, img.W, img.H, 0, 1, cells[:0])
	return out
}

// glcmCell is one touched co-occurrence cell: its row-major index i·L+j
// and its count, later its probability.
type glcmCell struct {
	idx int
	p   float64
}

// addCell counts one co-occurrence of cell idx in cells, which stays
// sorted by idx.
func addCell(cells []glcmCell, idx int) []glcmCell {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if cells[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cells) && cells[lo].idx == idx {
		cells[lo].p++
		return cells
	}
	cells = append(cells, glcmCell{})
	copy(cells[lo+1:], cells[lo:])
	cells[lo] = glcmCell{idx: idx, p: 1}
	return cells
}

// haralick appends the five features of the co-occurrence matrix of the
// quantised w×h raster q at offset (dx, dy). The matrix is kept sparse:
// only touched cells, walked in ascending (i, j) order — the order of a
// dense L×L scan. The cells it skips hold p = 0 and would add exactly +0 to
// each sum (every term is a finite value times p, and the sums start at
// +0), so the features are bit-identical to the dense computation.
func (g *GLCM) haralick(out []float64, q []uint8, w, h, dx, dy int, cells []glcmCell) []float64 {
	L := g.levels
	var total float64
	for y := 0; y < h-dy; y++ {
		for x := 0; x < w-dx; x++ {
			cells = addCell(cells, int(q[y*w+x])*L+int(q[(y+dy)*w+x+dx]))
			total++
		}
	}
	if total == 0 {
		return append(out, 0, 0, 0, 0, 0)
	}
	var meanI, meanJ float64
	for k := range cells {
		p := cells[k].p / total
		cells[k].p = p
		i, j := cells[k].idx/L, cells[k].idx%L
		meanI += float64(i) * p
		meanJ += float64(j) * p
	}
	var varI, varJ float64
	for _, c := range cells {
		i, j, p := c.idx/L, c.idx%L, c.p
		varI += (float64(i) - meanI) * (float64(i) - meanI) * p
		varJ += (float64(j) - meanJ) * (float64(j) - meanJ) * p
	}
	var contrast, energy, entropy, homog, corr float64
	for _, c := range cells {
		i, j, p := c.idx/L, c.idx%L, c.p
		d := float64(i - j)
		contrast += d * d * p
		energy += p * p
		entropy -= p * math.Log2(p)
		homog += p / (1 + d*d)
		corr += (float64(i) - meanI) * (float64(j) - meanJ) * p
	}
	if varI > 0 && varJ > 0 {
		corr /= math.Sqrt(varI * varJ)
	} else {
		corr = 0
	}
	return append(out, contrast/float64(L*L), energy, entropy/8, homog, corr)
}

// ---- autocorrelation ----

// Autocorrelation reports the normalised luma autocorrelation at six
// displacements, a cheap periodicity signature.
type Autocorrelation struct{}

// NewAutocorrelation builds the extractor.
func NewAutocorrelation() *Autocorrelation { return &Autocorrelation{} }

// Name implements Extractor.
func (*Autocorrelation) Name() string { return "autocorr" }

// Dim implements Extractor.
func (*Autocorrelation) Dim() int { return 6 }

// Extract implements Extractor.
func (*Autocorrelation) Extract(img *media.Image) []float64 {
	disp := [][2]int{{1, 0}, {2, 0}, {4, 0}, {0, 1}, {0, 2}, {0, 4}}
	out := make([]float64, len(disp))
	n := img.W * img.H
	if n == 0 {
		return out
	}
	var mean float64
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			mean += img.Gray(x, y)
		}
	}
	mean /= float64(n)
	var variance float64
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			d := img.Gray(x, y) - mean
			variance += d * d
		}
	}
	if variance == 0 {
		return out
	}
	for di, d := range disp {
		var num float64
		var cnt float64
		for y := 0; y < img.H-d[1]; y++ {
			for x := 0; x < img.W-d[0]; x++ {
				num += (img.Gray(x, y) - mean) * (img.Gray(x+d[0], y+d[1]) - mean)
				cnt++
			}
		}
		if cnt > 0 {
			out[di] = num / variance * float64(n) / cnt
		}
	}
	return out
}

// ---- fractal ----

// Fractal reports the differential box-counting fractal dimension plus the
// mean absolute gradient (surface roughness).
type Fractal struct{}

// NewFractal builds the extractor.
func NewFractal() *Fractal { return &Fractal{} }

// Name implements Extractor.
func (*Fractal) Name() string { return "fractal" }

// Dim implements Extractor.
func (*Fractal) Dim() int { return 2 }

// Extract implements Extractor.
func (*Fractal) Extract(img *media.Image) []float64 {
	out := make([]float64, 2)
	if img.W < 8 || img.H < 8 {
		return out
	}
	// differential box counting at scales 2,4,8
	var xs, ys []float64
	for _, s := range []int{2, 4, 8} {
		var boxes float64
		for y := 0; y+s <= img.H; y += s {
			for x := 0; x+s <= img.W; x += s {
				mn, mx := 255.0, 0.0
				for dy := 0; dy < s; dy++ {
					for dx := 0; dx < s; dx++ {
						g := img.Gray(x+dx, y+dy)
						if g < mn {
							mn = g
						}
						if g > mx {
							mx = g
						}
					}
				}
				h := float64(s) * 256 / 256
				boxes += math.Floor((mx-mn)/h) + 1
			}
		}
		xs = append(xs, math.Log(1/float64(s)))
		ys = append(ys, math.Log(boxes))
	}
	out[0] = slope(xs, ys)
	// mean absolute gradient
	var grad, cnt float64
	for y := 0; y < img.H-1; y++ {
		for x := 0; x < img.W-1; x++ {
			g := img.Gray(x, y)
			grad += math.Abs(img.Gray(x+1, y)-g) + math.Abs(img.Gray(x, y+1)-g)
			cnt += 2
		}
	}
	if cnt > 0 {
		out[1] = grad / cnt / 255
	}
	return out
}

// slope fits a least-squares line and returns its slope.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
