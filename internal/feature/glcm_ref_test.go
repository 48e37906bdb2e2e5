package feature

import (
	"math"
	"math/rand"
	"testing"

	"mirror/internal/media"
)

// denseGLCM is the GLCM extractor as it stood with a dense L×L matrix per
// offset, the reference the sparse walk must match bit for bit.
func denseGLCM(img *media.Image) []float64 {
	var out []float64
	for _, off := range [][2]int{{1, 0}, {0, 1}} {
		out = append(out, denseHaralick(img, 16, off[0], off[1])...)
	}
	return out
}

// denseHaralick is the pre-sparse haralick with the level count as a parameter.
func denseHaralick(img *media.Image, L, dx, dy int) []float64 {
	m := make([]float64, L*L)
	var total float64
	for y := 0; y < img.H-dy; y++ {
		for x := 0; x < img.W-dx; x++ {
			a := int(img.Gray(x, y)) * L / 256
			b := int(img.Gray(x+dx, y+dy)) * L / 256
			m[a*L+b]++
			total++
		}
	}
	feats := make([]float64, 5)
	if total == 0 {
		return feats
	}
	var meanI, meanJ float64
	for i := 0; i < L; i++ {
		for j := 0; j < L; j++ {
			p := m[i*L+j] / total
			m[i*L+j] = p
			meanI += float64(i) * p
			meanJ += float64(j) * p
		}
	}
	var varI, varJ float64
	for i := 0; i < L; i++ {
		for j := 0; j < L; j++ {
			p := m[i*L+j]
			varI += (float64(i) - meanI) * (float64(i) - meanI) * p
			varJ += (float64(j) - meanJ) * (float64(j) - meanJ) * p
		}
	}
	var contrast, energy, entropy, homog, corr float64
	for i := 0; i < L; i++ {
		for j := 0; j < L; j++ {
			p := m[i*L+j]
			if p == 0 {
				continue
			}
			d := float64(i - j)
			contrast += d * d * p
			energy += p * p
			entropy -= p * math.Log2(p)
			homog += p / (1 + d*d)
			corr += (float64(i) - meanI) * (float64(j) - meanJ) * p
		}
	}
	if varI > 0 && varJ > 0 {
		corr /= math.Sqrt(varI * varJ)
	} else {
		corr = 0
	}
	feats[0] = contrast / float64(L*L)
	feats[1] = energy
	feats[2] = entropy / 8
	feats[3] = homog
	feats[4] = corr
	return feats
}

// requireGLCMMatchesDense compares the sparse extractor with denseGLCM in
// IEEE-754 bits.
func requireGLCMMatchesDense(t *testing.T, img *media.Image) {
	t.Helper()
	got, want := NewGLCM().Extract(img), denseGLCM(img)
	if len(got) != len(want) {
		t.Fatalf("%dx%d: %d features, want %d", img.W, img.H, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%dx%d: feature %d = %v, want %v", img.W, img.H, i, got[i], want[i])
		}
	}
}

// TestGLCMMatchesDense covers rasters from 1×1 (no pixel pairs at either
// offset: total == 0) to 12×12, with full-range noise, few-level images
// (many repeats of few cells) and flat ones (zero variance).
func TestGLCMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 1; w <= 12; w++ {
		for h := 1; h <= 12; h++ {
			for trial := 0; trial < 6; trial++ {
				img := media.NewImage(w, h)
				levels := []int{1, 2, 3, 256}[trial%4]
				for i := range img.Pix {
					v := uint8(rng.Intn(levels) * (255 / max(levels-1, 1)))
					if levels == 256 {
						img.Pix[i] = media.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
					} else {
						img.Pix[i] = media.RGB{R: v, G: v, B: v}
					}
				}
				requireGLCMMatchesDense(t, img)
			}
		}
	}
}

// TestGLCMExtractAllocs pins the allocation count of one 2×2 tile (the
// pipeline's common case): the returned vector only — quantised levels and
// touched cells live on the stack.
func TestGLCMExtractAllocs(t *testing.T) {
	img := media.NewImage(2, 2)
	for i := range img.Pix {
		img.Pix[i] = media.RGB{R: uint8(60 * i), G: uint8(40 * i), B: 9}
	}
	g := NewGLCM()
	if n := testing.AllocsPerRun(100, func() { g.Extract(img) }); n != 1 {
		t.Fatalf("GLCM.Extract on a 2x2 tile: %v allocs/op, want 1", n)
	}
}

// FuzzGLCMMatchesDense decodes a raster from the input — width and height
// from the first two bytes, then RGB triples, zero-padded — and requires
// the sparse extractor to equal the dense reference bit for bit.
func FuzzGLCMMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 7, 7, 7})
	f.Add([]byte{1, 1, 0, 0, 0, 255, 255, 255, 128, 0, 64, 10, 200, 30})
	f.Add([]byte{11, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, h := 1, 1
		if len(data) >= 2 {
			w, h = 1+int(data[0])%16, 1+int(data[1])%16
			data = data[2:]
		}
		img := media.NewImage(w, h)
		for i := range img.Pix {
			var px [3]uint8
			copy(px[:], data[min(3*i, len(data)):])
			img.Pix[i] = media.RGB{R: px[0], G: px[1], B: px[2]}
		}
		requireGLCMMatchesDense(t, img)
	})
}
