// Package cluster is the AutoClass substitute (Cheeseman & Stutz, 1995):
// unsupervised Bayesian classification of feature vectors. Like AutoClass
// it fits mixtures of independent (diagonal-covariance) Gaussians with EM
// and selects the number of classes by an approximation to the marginal
// likelihood — here the BIC, the same Laplace-style approximation AutoClass
// popularised. All randomness is seeded; results are deterministic.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Model is a fitted mixture of diagonal Gaussians.
type Model struct {
	K, D    int
	Weights []float64   // K
	Means   [][]float64 // K×D
	Vars    [][]float64 // K×D
	LogLik  float64     // final training log-likelihood
	BIC     float64     // Bayesian information criterion (lower is better)
}

const (
	varFloor = 1e-6
	emIters  = 60
	emTol    = 1e-6
)

// Fit runs EM from a k-means++ initialisation.
func Fit(data [][]float64, k int, seed int64) (*Model, error) {
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
	// A +0 responsibility adds ±0 to a sum that starts at +0, which
	// changes nothing, so the M step may skip it — but only while every
	// product it skips is ±0: 0·Inf is NaN. The mean sums multiply data
	// values, so those must be finite. The variance sums multiply
	// x_t − μ_t: a responsibility can only be exactly 0 when the initial
	// variances are finite (an infinite one makes every responsibility
	// NaN, for good), which bounds the data's spread, and so every such
	// difference, far below overflow.
	finite := allFinite(data)
	var sc scorer
	prev := math.Inf(-1)
	for iter := 0; iter < emIters; iter++ {
		// E step
		sc.reset(m)
		ll := 0.0
		for i, x := range data {
			maxLog := math.Inf(-1)
			for j := 0; j < k; j++ {
				resp[i][j] = sc.logJoint(j, x)
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
		mStep(m, data, resp, globalVar, finite, rng)
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

// mStep re-estimates m's weights, means and variances from the
// responsibilities, bit for bit as a per-component loop would: for each
// component j, nj and every mean and variance sum still accumulate in
// ascending i. The loops run i outer and j inner, so the data is walked
// once for the counts and means and once for the variances, not twice
// per component. A component whose mass falls below 1e-10 is dead: it is
// re-seeded on a random point, drawing from rng in ascending j. finite
// reports that every data value is finite, which makes skipping +0
// responsibilities exact. The t loops are unrolled by four: each
// statement is the next add of its own (j, t) sum, so no sum changes
// order.
func mStep(m *Model, data, resp [][]float64, globalVar []float64, finite bool, rng *rand.Rand) {
	n := len(data)
	nj := make([]float64, m.K)
	dead := make([]bool, m.K)
	for j := range m.Means {
		clear(m.Means[j])
	}
	for i, x := range data {
		for j, r := range resp[i] {
			if r == 0 && finite {
				continue
			}
			nj[j] += r
			mean := m.Means[j][:len(x)]
			t := 0
			for ; t+4 <= len(mean); t += 4 {
				mean[t] += r * x[t]
				mean[t+1] += r * x[t+1]
				mean[t+2] += r * x[t+2]
				mean[t+3] += r * x[t+3]
			}
			for ; t < len(mean); t++ {
				mean[t] += r * x[t]
			}
		}
	}
	for j := range m.Means {
		mean := m.Means[j]
		dead[j] = nj[j] < 1e-10
		if dead[j] {
			// dead component: re-seed on a random point
			copy(mean, data[rng.Intn(n)])
			m.Weights[j] = 1e-6
			copy(m.Vars[j], globalVar)
			continue
		}
		for t := range mean {
			mean[t] /= nj[j]
		}
		clear(m.Vars[j])
	}
	for i, x := range data {
		for j, r := range resp[i] {
			if dead[j] || (r == 0 && finite) {
				continue
			}
			mean, vr := m.Means[j][:len(x)], m.Vars[j][:len(x)]
			t := 0
			for ; t+4 <= len(vr); t += 4 {
				d0, d1, d2, d3 := x[t]-mean[t], x[t+1]-mean[t+1], x[t+2]-mean[t+2], x[t+3]-mean[t+3]
				vr[t] += r * d0 * d0
				vr[t+1] += r * d1 * d1
				vr[t+2] += r * d2 * d2
				vr[t+3] += r * d3 * d3
			}
			for ; t < len(vr); t++ {
				dt := x[t] - mean[t]
				vr[t] += r * dt * dt
			}
		}
	}
	for j, vr := range m.Vars {
		if dead[j] {
			continue
		}
		for t := range vr {
			vr[t] = vr[t]/nj[j] + varFloor
		}
		m.Weights[j] = nj[j] / float64(n)
	}
}

// allFinite reports whether no value of rows is ±Inf or NaN.
func allFinite(rows [][]float64) bool {
	for _, x := range rows {
		for _, v := range x {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
	}
	return true
}

// scorer evaluates the log joint log(w_j) + log N(x | μ_j, diag v_j) of a
// model's components. The per-component terms that do not depend on x —
// log(w_j+1e-300) and −½·log(2π·v_jt) — are computed once in reset, not
// once per point, and the per-point sum adds them in the same order as the
// direct formula Σ_t [−½·log(2π·v_jt) − (x_t−μ_jt)²/(2·v_jt)], so every
// score is bit-identical to evaluating that formula in full. A scorer is
// valid until the model's parameters change.
type scorer struct {
	m    *Model
	logW []float64 // K
	c    []float64 // K×D, row-major
}

func newScorer(m *Model) *scorer {
	sc := &scorer{}
	sc.reset(m)
	return sc
}

// reset recomputes the constants from m's current parameters, reusing the
// scorer's buffers.
func (sc *scorer) reset(m *Model) {
	sc.m = m
	if cap(sc.logW) < m.K || cap(sc.c) < m.K*m.D {
		sc.logW = make([]float64, m.K)
		sc.c = make([]float64, m.K*m.D)
	}
	sc.logW, sc.c = sc.logW[:m.K], sc.c[:m.K*m.D]
	for j := 0; j < m.K; j++ {
		sc.logW[j] = math.Log(m.Weights[j] + 1e-300)
		c := sc.c[j*m.D : (j+1)*m.D]
		for t, v := range m.Vars[j] {
			c[t] = -0.5 * math.Log(2*math.Pi*v)
		}
	}
}

// logJoint is log(w_j) + log density of component j at x.
func (sc *scorer) logJoint(j int, x []float64) float64 {
	d := sc.m.D
	c := sc.c[j*d : (j+1)*d]
	mean, vr := sc.m.Means[j][:d], sc.m.Vars[j][:d]
	x = x[:d]
	s := 0.0
	for t := range c {
		v := vr[t]
		dt := x[t] - mean[t]
		s += c[t] - dt*dt/(2*v)
	}
	return sc.logW[j] + s
}

// assign returns the most probable component for x.
func (sc *scorer) assign(x []float64) int {
	best, bestV := 0, math.Inf(-1)
	for j := 0; j < sc.m.K; j++ {
		if v := sc.logJoint(j, x); v > bestV {
			best, bestV = j, v
		}
	}
	return best
}

// Assign returns the most probable component for x.
func (m *Model) Assign(x []float64) int {
	return newScorer(m).assign(x)
}

// AssignAll returns the most probable component of every row of xs; each
// entry equals Assign of that row, but the component constants are
// computed once for the whole batch.
func (m *Model) AssignAll(xs [][]float64) []int {
	sc := newScorer(m)
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = sc.assign(x)
	}
	return out
}

// Posterior returns P(component | x).
func (m *Model) Posterior(x []float64) []float64 {
	sc := newScorer(m)
	logs := make([]float64, m.K)
	maxLog := math.Inf(-1)
	for j := 0; j < m.K; j++ {
		logs[j] = sc.logJoint(j, x)
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

// Select fits models for k in [kmin, kmax] and returns the one with the
// best (lowest) BIC — AutoClass's search over the number of classes. The
// fits are independent and run on up to GOMAXPROCS goroutines, largest k
// first; the pick then scans them in ascending k, so the result (ties go
// to the smaller k) is the serial search's.
func Select(data [][]float64, kmin, kmax int, seed int64) (*Model, error) {
	if kmin < 1 || kmax < kmin {
		return nil, fmt.Errorf("cluster: bad k range [%d,%d]", kmin, kmax)
	}
	if kmax > len(data) {
		kmax = len(data)
	}
	if kmax < kmin {
		return nil, fmt.Errorf("cluster: no model fitted")
	}
	models := make([]*Model, kmax-kmin+1)
	errs := make([]error, len(models))
	workers := min(runtime.GOMAXPROCS(0), len(models))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Largest k first: a fit costs about k, so the costliest start
			// early and the last ones to finish are short.
			for n := int(next.Add(1)); n <= len(models); n = int(next.Add(1)) {
				i := len(models) - n
				k := kmin + i
				models[i], errs[i] = Fit(data, k, seed+int64(k))
			}
		}()
	}
	wg.Wait()
	var best *Model
	for i, m := range models {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if best == nil || m.BIC < best.BIC {
			best = m
		}
	}
	return best, nil
}

// kmeansPP picks k initial centres with the k-means++ heuristic.
func kmeansPP(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(data)
	centres := make([][]float64, 0, k)
	centres = append(centres, append([]float64(nil), data[rng.Intn(n)]...))
	d2 := make([]float64, n)
	for len(centres) < k {
		var sum float64
		for i, x := range data {
			best := math.Inf(1)
			for _, c := range centres {
				if d := sqDist(x, c); d < best {
					best = d
				}
			}
			d2[i] = best
			sum += best
		}
		var pick int
		if sum == 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * sum
			acc := 0.0
			for i, v := range d2 {
				acc += v
				if acc >= r {
					pick = i
					break
				}
			}
		}
		centres = append(centres, append([]float64(nil), data[pick]...))
	}
	return centres
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Standardize z-scores each dimension in place-safe copies and returns the
// transformed data plus the (mean, std) transform for application to new
// points.
func Standardize(data [][]float64) (out [][]float64, means, stds []float64) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	d := len(data[0])
	means = make([]float64, d)
	stds = make([]float64, d)
	for _, x := range data {
		for t := 0; t < d; t++ {
			means[t] += x[t]
		}
	}
	for t := 0; t < d; t++ {
		means[t] /= float64(len(data))
	}
	for _, x := range data {
		for t := 0; t < d; t++ {
			dv := x[t] - means[t]
			stds[t] += dv * dv
		}
	}
	for t := 0; t < d; t++ {
		stds[t] = math.Sqrt(stds[t] / float64(len(data)))
		if stds[t] < 1e-9 {
			stds[t] = 1
		}
	}
	out = make([][]float64, len(data))
	for i, x := range data {
		out[i] = ApplyStandardize(x, means, stds)
	}
	return out, means, stds
}

// ApplyStandardize transforms one vector with a Standardize transform.
func ApplyStandardize(x, means, stds []float64) []float64 {
	out := make([]float64, len(x))
	for t := range x {
		out[t] = (x[t] - means[t]) / stds[t]
	}
	return out
}

// dimVariances returns per-dimension variances of the data (used as the
// initial component variances).
func dimVariances(data [][]float64) []float64 {
	d := len(data[0])
	mean := make([]float64, d)
	for _, x := range data {
		for t := 0; t < d; t++ {
			mean[t] += x[t]
		}
	}
	for t := 0; t < d; t++ {
		mean[t] /= float64(len(data))
	}
	vr := make([]float64, d)
	for _, x := range data {
		for t := 0; t < d; t++ {
			dv := x[t] - mean[t]
			vr[t] += dv * dv
		}
	}
	for t := 0; t < d; t++ {
		vr[t] = vr[t]/float64(len(data)) + varFloor
	}
	return vr
}

// AdjustedRandIndex measures agreement between two labelings, corrected for
// chance: 1 is perfect agreement, ~0 is random.
func AdjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	amax, bmax := 0, 0
	for i := range a {
		if a[i] > amax {
			amax = a[i]
		}
		if b[i] > bmax {
			bmax = b[i]
		}
	}
	table := make([][]float64, amax+1)
	for i := range table {
		table[i] = make([]float64, bmax+1)
	}
	for i := range a {
		table[a[i]][b[i]]++
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	var sumIJ, sumA, sumB float64
	rowSums := make([]float64, amax+1)
	colSums := make([]float64, bmax+1)
	for i := range table {
		for j := range table[i] {
			sumIJ += choose2(table[i][j])
			rowSums[i] += table[i][j]
			colSums[j] += table[i][j]
		}
	}
	for _, r := range rowSums {
		sumA += choose2(r)
	}
	for _, c := range colSums {
		sumB += choose2(c)
	}
	n := choose2(float64(len(a)))
	expected := sumA * sumB / n
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 0
	}
	return (sumIJ - expected) / (maxIdx - expected)
}
