package plansearch

import (
	"cmp"
	"math"
	"slices"
)

// The predictor is one small ridge-regularized linear model per discipline:
// makespan(k) ≈ w·φ(k) with φ the closed-form feature row of bounds.go. It
// is fitted to the anchor probes only — a handful of exact simulations — and
// exists purely to RANK the remaining candidates; absolute accuracy does not
// matter, rank fidelity does (reported as Result.RankCorrelation). The fit
// is a deterministic 6×6 normal-equation solve: no iteration, no randomness,
// no dependence on worker count.

// fitPredictor fits one weight vector per discipline from the probed
// anchors and fills st.pred for every candidate.
func (st *state) fitPredictor(anchors []int) {
	st.pred = make([]float64, st.n)
	per := len(anchors) / len(st.sp.Disciplines) // anchorIDs lists them discipline-major
	for d := range st.sp.Disciplines {
		w := st.fitWeights(anchors[d*per : (d+1)*per])
		for k := 0; k < st.S; k++ {
			st.pred[d*st.S+k] = dot(w, st.kb.features(k))
		}
	}
}

// fitWeights solves the ridge-regularized normal equations over the probed
// anchor ids of one discipline.
func (st *state) fitWeights(ids []int) [numFeatures]float64 {
	var ata [numFeatures][numFeatures]float64
	var aty [numFeatures]float64
	for _, id := range ids {
		phi := st.kb.features(id % st.S)
		y := float64(st.measured[id])
		for i := 0; i < numFeatures; i++ {
			for j := 0; j < numFeatures; j++ {
				ata[i][j] += phi[i] * phi[j]
			}
			aty[i] += phi[i] * y
		}
	}
	// Ridge term: keeps the solve well-posed when features are collinear
	// (e.g. a space whose sync mass is uniformly zero). Small enough to
	// leave informative directions untouched.
	const lambda = 1e-6
	for i := 0; i < numFeatures; i++ {
		ata[i][i] += lambda
	}
	return solveSPD(ata, aty)
}

// solveSPD solves A·w = b for a symmetric positive-definite A by Gaussian
// elimination with partial pivoting (the ridge term guarantees
// definiteness). Fixed-size, allocation-free, deterministic.
func solveSPD(a [numFeatures][numFeatures]float64, b [numFeatures]float64) [numFeatures]float64 {
	const n = numFeatures
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if piv != col {
			a[col], a[piv] = a[piv], a[col]
			b[col], b[piv] = b[piv], b[col]
		}
		p := a[col][col]
		if p == 0 {
			continue // defensive: ridge term makes this unreachable
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / p
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var w [numFeatures]float64
	for r := n - 1; r >= 0; r-- {
		v := b[r]
		for c := r + 1; c < n; c++ {
			v -= a[r][c] * w[c]
		}
		if a[r][r] != 0 {
			w[r] = v / a[r][r]
		}
	}
	return w
}

func dot(w, phi [numFeatures]float64) float64 {
	var v float64
	for i := 0; i < numFeatures; i++ {
		v += w[i] * phi[i]
	}
	return v
}

// rankCorrelation computes the Spearman correlation between the predictor's
// values and the measured makespans over every probed candidate (average
// ranks on ties). 0 when fewer than three candidates were probed or either
// ranking is constant.
func (st *state) rankCorrelation() float64 {
	ids := make([]int, 0, st.probes)
	for id, m := range st.measured {
		if m >= 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) < 3 {
		return 0
	}
	pr := ranks(ids, func(id int) float64 { return st.pred[id] })
	mr := ranks(ids, func(id int) float64 { return float64(st.measured[id]) })
	return pearson(pr, mr)
}

// ranks assigns average ranks (1-based) to the ids under the key function.
func ranks(ids []int, key func(id int) float64) []float64 {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(key(ids[a]), key(ids[b])), cmp.Compare(ids[a], ids[b]))
	})
	out := make([]float64, len(ids))
	for i := 0; i < len(order); {
		j := i
		for j+1 < len(order) && key(ids[order[j+1]]) == key(ids[order[i]]) {
			j++
		}
		avg := float64(i+j)/2 + 1
		for t := i; t <= j; t++ {
			out[order[t]] = avg
		}
		i = j + 1
	}
	return out
}

// pearson is the sample correlation of two equal-length vectors; 0 when
// either is constant.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
