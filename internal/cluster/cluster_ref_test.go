package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests below pin the hoisted E step to the direct formula bit for bit:
// refFit, refAssign and refPosterior are the kernels as they stood before
// the per-component constants moved out of the per-point loop.

// refReseeds counts refFit's dead-component re-seeds (the one line added
// to the pre-change code), so a test can tell that it reached that branch.
var refReseeds int

// refFit is Fit as it was before the E-step constants were hoisted: it
// runs EM from a k-means++ initialisation.
func refFit(data [][]float64, k int, seed int64) (*Model, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no data")
	}
	d := len(data[0])
	for _, x := range data {
		if len(x) != d {
			return nil, fmt.Errorf("cluster: ragged data: %d vs %d dims", len(x), d)
		}
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range 1..%d", k, n)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{K: k, D: d}
	m.Means = kmeansPP(data, k, rng)
	m.Weights = make([]float64, k)
	m.Vars = make([][]float64, k)
	globalVar := dimVariances(data)
	for j := 0; j < k; j++ {
		m.Weights[j] = 1 / float64(k)
		m.Vars[j] = append([]float64(nil), globalVar...)
	}

	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	prev := math.Inf(-1)
	for iter := 0; iter < emIters; iter++ {
		// E step
		ll := 0.0
		for i, x := range data {
			maxLog := math.Inf(-1)
			for j := 0; j < k; j++ {
				resp[i][j] = math.Log(m.Weights[j]+1e-300) + refLogGauss(m, j, x)
				if resp[i][j] > maxLog {
					maxLog = resp[i][j]
				}
			}
			var sum float64
			for j := 0; j < k; j++ {
				resp[i][j] = math.Exp(resp[i][j] - maxLog)
				sum += resp[i][j]
			}
			for j := 0; j < k; j++ {
				resp[i][j] /= sum
			}
			ll += maxLog + math.Log(sum)
		}
		// M step
		for j := 0; j < k; j++ {
			var nj float64
			mean := make([]float64, d)
			for i, x := range data {
				r := resp[i][j]
				nj += r
				for t := 0; t < d; t++ {
					mean[t] += r * x[t]
				}
			}
			if nj < 1e-10 {
				// dead component: re-seed on a random point
				refReseeds++
				p := data[rng.Intn(n)]
				copy(mean, p)
				nj = 1
				m.Weights[j] = 1e-6
				m.Means[j] = mean
				m.Vars[j] = append([]float64(nil), globalVar...)
				continue
			}
			for t := 0; t < d; t++ {
				mean[t] /= nj
			}
			vr := make([]float64, d)
			for i, x := range data {
				r := resp[i][j]
				for t := 0; t < d; t++ {
					dt := x[t] - mean[t]
					vr[t] += r * dt * dt
				}
			}
			for t := 0; t < d; t++ {
				vr[t] = vr[t]/nj + varFloor
			}
			m.Weights[j] = nj / float64(n)
			m.Means[j] = mean
			m.Vars[j] = vr
		}
		if ll-prev < emTol && iter > 3 {
			prev = ll
			break
		}
		prev = ll
	}
	m.LogLik = prev
	params := float64(k*(2*d) + (k - 1))
	m.BIC = -2*m.LogLik + params*math.Log(float64(n))
	return m, nil
}

// refLogGauss is the log density of component j at x (diagonal covariance).
func refLogGauss(m *Model, j int, x []float64) float64 {
	s := 0.0
	for t := 0; t < m.D; t++ {
		v := m.Vars[j][t]
		d := x[t] - m.Means[j][t]
		s += -0.5*math.Log(2*math.Pi*v) - d*d/(2*v)
	}
	return s
}

// refAssign returns the most probable component for x.
func refAssign(m *Model, x []float64) int {
	best, bestV := 0, math.Inf(-1)
	for j := 0; j < m.K; j++ {
		v := math.Log(m.Weights[j]+1e-300) + refLogGauss(m, j, x)
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}

// refPosterior returns P(component | x).
func refPosterior(m *Model, x []float64) []float64 {
	logs := make([]float64, m.K)
	maxLog := math.Inf(-1)
	for j := 0; j < m.K; j++ {
		logs[j] = math.Log(m.Weights[j]+1e-300) + refLogGauss(m, j, x)
		if logs[j] > maxLog {
			maxLog = logs[j]
		}
	}
	var sum float64
	for j := range logs {
		logs[j] = math.Exp(logs[j] - maxLog)
		sum += logs[j]
	}
	for j := range logs {
		logs[j] /= sum
	}
	return logs
}

// sameBits reports the first position where a and b differ in their
// IEEE-754 bits, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func requireSameModel(t *testing.T, label string, got, want *Model) {
	t.Helper()
	if got.K != want.K || got.D != want.D {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.K, got.D, want.K, want.D)
	}
	if i := sameBits(got.Weights, want.Weights); i >= 0 {
		t.Fatalf("%s: Weights differ at %d", label, i)
	}
	for j := 0; j < want.K; j++ {
		if i := sameBits(got.Means[j], want.Means[j]); i >= 0 {
			t.Fatalf("%s: Means[%d] differ at %d", label, j, i)
		}
		if i := sameBits(got.Vars[j], want.Vars[j]); i >= 0 {
			t.Fatalf("%s: Vars[%d] differ at %d", label, j, i)
		}
	}
	if i := sameBits([]float64{got.LogLik, got.BIC}, []float64{want.LogLik, want.BIC}); i >= 0 {
		t.Fatalf("%s: LogLik/BIC %v/%v, want %v/%v", label, got.LogLik, got.BIC, want.LogLik, want.BIC)
	}
}

// refData mixes blobs with duplicated points and a constant dimension, the
// shapes standardised feature spaces take (empty histogram bins, repeated
// flat tiles).
func refData(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(4)
	data := make([][]float64, n)
	for i := range data {
		if i > 0 && rng.Intn(5) == 0 {
			data[i] = append([]float64(nil), data[rng.Intn(i)]...)
			continue
		}
		x := make([]float64, d)
		c := float64(i % k)
		for t := range x {
			if t%7 == 3 {
				continue // a constant dimension
			}
			x[t] = 3*c*float64(1+t%3) + rng.NormFloat64()*(0.2+float64(t%4))
		}
		data[i] = x
	}
	return data
}

func TestFitMatchesReference(t *testing.T) {
	for d := 1; d <= 67; d++ {
		for k := 1; k <= 8; k++ {
			seed := int64(d*31 + k)
			data := refData(20+int(seed%23), d, seed)
			if k > len(data) {
				continue
			}
			label := fmt.Sprintf("d=%d k=%d seed=%d", d, k, seed)
			want, err := refFit(data, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Fit(data, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			requireSameModel(t, label, got, want)
			for i, x := range data {
				if a, b := got.Assign(x), refAssign(want, x); a != b {
					t.Fatalf("%s: Assign(row %d) = %d, want %d", label, i, a, b)
				}
				if i := sameBits(got.Posterior(x), refPosterior(want, x)); i >= 0 {
					t.Fatalf("%s: Posterior differs at component %d", label, i)
				}
			}
			all := got.AssignAll(data)
			for i, x := range data {
				if all[i] != refAssign(want, x) {
					t.Fatalf("%s: AssignAll[%d] = %d, want %d", label, i, all[i], refAssign(want, x))
				}
			}
		}
	}
}

// TestFitReferenceDeadComponent drives the M step's dead-component
// re-seed: small sets of coarse, far-apart points with nearly as many
// components as points leave some component without responsibility mass.
func TestFitReferenceDeadComponent(t *testing.T) {
	before := refReseeds
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, d := 4+rng.Intn(10), 1+rng.Intn(3)
		data := make([][]float64, n)
		for i := range data {
			x := make([]float64, d)
			for t := range x {
				x[t] = float64(rng.Intn(3)) * float64(1+rng.Intn(2)*50)
			}
			data[i] = x
		}
		k := 2 + rng.Intn(n-1)
		want, err := refFit(data, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Fit(data, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		requireSameModel(t, fmt.Sprintf("seed=%d k=%d", seed, k), got, want)
	}
	if refReseeds == before {
		t.Fatal("no fit re-seeded a dead component; the test lost its point")
	}
}

// TestSelectMatchesSerialSearch compares the concurrent class search with
// the serial ascending-k scan over reference fits.
func TestSelectMatchesSerialSearch(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		data := refData(60, 1+int(seed%9)*4, seed)
		var want *Model
		for k := 2; k <= 8; k++ {
			m, err := refFit(data, k, seed+int64(k))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil || m.BIC < want.BIC {
				want = m
			}
		}
		got, err := Select(data, 2, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		requireSameModel(t, fmt.Sprintf("seed=%d", seed), got, want)
	}
}

// fuzzData derives a data set from fuzz input. shape picks the
// pathologies: far-apart blobs (responsibilities that underflow to
// exactly +0), coarse repeated values (duplicate rows and components left
// without mass), magnitudes near the float64 limit, and Inf or NaN
// entries at positions the poison bytes choose.
func fuzzData(seed int64, n, d int, shape uint8, poison []byte) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		if shape&1 != 0 && i > 0 && rng.Intn(3) == 0 {
			data[i] = append([]float64(nil), data[rng.Intn(i)]...) // duplicate row
			continue
		}
		x := make([]float64, d)
		c := float64(rng.Intn(3))
		for t := range x {
			switch {
			case shape&2 != 0:
				x[t] = c * 1e3 // far-apart blobs of identical points
			case shape&4 != 0:
				x[t] = float64(rng.Intn(2)) * float64(1+rng.Intn(2)*50)
			default:
				x[t] = c*4 + rng.NormFloat64()
			}
			if shape&8 != 0 && rng.Intn(7) == 0 {
				x[t] *= 1e305 // differences overflow
			}
		}
		data[i] = x
	}
	odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	for i := 0; i+1 < len(poison); i += 2 {
		row, col := int(poison[i])%n, int(poison[i+1])%d
		data[row][col] = odd[int(poison[i]^poison[i+1])%len(odd)]
	}
	return data
}

// FuzzFitMatchesReference pins Fit, one-pass M step included, to refFit
// bit for bit — LogLik, BIC, weights, means and variances — on data with
// exact-zero responsibilities, dead components, duplicate rows, k == n,
// huge magnitudes and Inf/NaN entries.
func FuzzFitMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(4), uint8(0), []byte{})
	f.Add(int64(2), uint8(30), uint8(2), uint8(5), uint8(2), []byte{})           // exact-zero responsibilities
	f.Add(int64(3), uint8(9), uint8(2), uint8(7), uint8(4), []byte{})            // dead components
	f.Add(int64(4), uint8(12), uint8(3), uint8(12), uint8(1), []byte{})          // duplicate rows, k == n
	f.Add(int64(5), uint8(16), uint8(2), uint8(3), uint8(2), []byte{3, 1})       // an Inf entry
	f.Add(int64(6), uint8(16), uint8(2), uint8(3), uint8(0), []byte{2, 0, 7, 1}) // NaN entries
	f.Add(int64(7), uint8(24), uint8(3), uint8(4), uint8(10), []byte{})          // magnitudes near the limit
	f.Fuzz(func(t *testing.T, seed int64, n, d, k, shape uint8, poison []byte) {
		nn, dd := 1+int(n)%48, 1+int(d)%6
		kk := 1 + int(k)%nn
		data := fuzzData(seed, nn, dd, shape, poison)
		want, werr := refFit(data, kk, seed)
		got, gerr := Fit(data, kk, seed)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("Fit error %v, reference %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		requireSameModel(t, fmt.Sprintf("n=%d d=%d k=%d shape=%d", nn, dd, kk, shape), got, want)
	})
}
