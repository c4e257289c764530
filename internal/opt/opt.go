// Package opt provides the numerical optimizers used by circuit
// synthesis (VUG instantiation) and quantum optimal control: Adam,
// L-BFGS with two-loop recursion, Nelder-Mead simplex search, and
// golden-section line search, plus finite-difference gradients.
package opt

import (
	"math"
)

// Objective is a scalar function of a parameter vector.
type Objective func(x []float64) float64

// Gradient fills grad with ∂f/∂x at x.
type Gradient func(x []float64, grad []float64)

// Result reports the outcome of an optimization run.
type Result struct {
	X          []float64
	F          float64
	Iterations int
	Converged  bool
}

// FiniteDiffGradient returns a Gradient computed with central
// differences of width h around f.
func FiniteDiffGradient(f Objective, h float64) Gradient {
	return func(x []float64, grad []float64) {
		xx := make([]float64, len(x))
		copy(xx, x)
		for i := range x {
			orig := xx[i]
			xx[i] = orig + h
			fp := f(xx)
			xx[i] = orig - h
			fm := f(xx)
			xx[i] = orig
			grad[i] = (fp - fm) / (2 * h)
		}
	}
}

// AdamConfig controls the Adam optimizer.
type AdamConfig struct {
	LearningRate float64 // step size (default 0.01)
	Beta1        float64 // first-moment decay (default 0.9)
	Beta2        float64 // second-moment decay (default 0.999)
	Epsilon      float64 // numerical floor (default 1e-8)
	MaxIter      int     // iteration budget (default 500)
	Tol          float64 // stop when |Δf| < Tol (default 1e-10)
	GradTol      float64 // stop when ‖grad‖∞ < GradTol (default 1e-8)
}

func (c *AdamConfig) defaults() {
	if c.LearningRate == 0 {
		c.LearningRate = 0.01
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-8
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
	if c.Tol == 0 {
		c.Tol = 1e-10
	}
	if c.GradTol == 0 {
		c.GradTol = 1e-8
	}
}

// Adam minimizes f starting from x0 using the Adam update rule.
func Adam(f Objective, g Gradient, x0 []float64, cfg AdamConfig) Result {
	cfg.defaults()
	n := len(x0)
	x := make([]float64, n)
	copy(x, x0)
	m := make([]float64, n)
	v := make([]float64, n)
	grad := make([]float64, n)
	prevF := math.Inf(1)
	var fx float64
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		fx = f(x)
		g(x, grad)
		gi := maxAbs(grad)
		if gi < cfg.GradTol || math.Abs(prevF-fx) < cfg.Tol {
			return Result{X: x, F: fx, Iterations: iter, Converged: true}
		}
		prevF = fx
		b1t := 1 - math.Pow(cfg.Beta1, float64(iter))
		b2t := 1 - math.Pow(cfg.Beta2, float64(iter))
		for i := 0; i < n; i++ {
			m[i] = cfg.Beta1*m[i] + (1-cfg.Beta1)*grad[i]
			v[i] = cfg.Beta2*v[i] + (1-cfg.Beta2)*grad[i]*grad[i]
			mhat := m[i] / b1t
			vhat := v[i] / b2t
			x[i] -= cfg.LearningRate * mhat / (math.Sqrt(vhat) + cfg.Epsilon)
		}
	}
	return Result{X: x, F: f(x), Iterations: cfg.MaxIter, Converged: false}
}

// LBFGSConfig controls the L-BFGS optimizer.
type LBFGSConfig struct {
	Memory  int     // history length (default 8)
	MaxIter int     // iteration budget (default 200)
	GradTol float64 // stop when ‖grad‖∞ < GradTol (default 1e-8)
	Tol     float64 // stop when |Δf| < Tol (default 1e-12)
}

func (c *LBFGSConfig) defaults() {
	if c.Memory == 0 {
		c.Memory = 8
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.GradTol == 0 {
		c.GradTol = 1e-8
	}
	if c.Tol == 0 {
		c.Tol = 1e-12
	}
}

// lbfgsHistory is a ring buffer of (s, y, ρ) curvature pairs. Rows are
// allocated once at capacity; push overwrites the oldest entry in place
// and reset just zeroes the logical length, so a running L-BFGS never
// allocates history after construction.
type lbfgsHistory struct {
	s, y  [][]float64
	rho   []float64
	head  int // index of the oldest entry
	count int
}

func newLBFGSHistory(mem, n int) *lbfgsHistory {
	h := &lbfgsHistory{
		s:   make([][]float64, mem),
		y:   make([][]float64, mem),
		rho: make([]float64, mem),
	}
	for i := 0; i < mem; i++ {
		h.s[i] = make([]float64, n)
		h.y[i] = make([]float64, n)
	}
	return h
}

// at maps logical index i (0 = oldest) to the ring slot.
func (h *lbfgsHistory) at(i int) int { return (h.head + i) % len(h.s) }

// push records a curvature pair, evicting the oldest when full.
func (h *lbfgsHistory) push(s, y []float64, rho float64) {
	var slot int
	if h.count < len(h.s) {
		slot = h.at(h.count)
		h.count++
	} else {
		slot = h.head
		h.head = (h.head + 1) % len(h.s)
	}
	copy(h.s[slot], s)
	copy(h.y[slot], y)
	h.rho[slot] = rho
}

func (h *lbfgsHistory) reset() { h.count, h.head = 0, 0 }

// LBFGS minimizes f with limited-memory BFGS and a backtracking Armijo
// line search. The iteration loop is allocation-free: the direction and
// line-search buffers are preallocated, the curvature history lives in
// a fixed ring buffer, and the line-search closures are hoisted out of
// the loop — VUG instantiation calls this once per candidate template,
// so per-iteration garbage multiplies across the whole synthesis sweep.
//
//epoc:hot
func LBFGS(f Objective, g Gradient, x0 []float64, cfg LBFGSConfig) Result {
	cfg.defaults()
	n := len(x0)
	x := make([]float64, n)
	copy(x, x0)
	grad := make([]float64, n)
	f(x)
	g(x, grad)

	hist := newLBFGSHistory(cfg.Memory, n)
	alpha := make([]float64, cfg.Memory)
	d := make([]float64, n)
	xNew := make([]float64, n)
	trial := make([]float64, n)
	gradNew := make([]float64, n)
	s := make([]float64, n)
	y := make([]float64, n)
	fx := f(x)

	// Line-search state shared with the hoisted closures; fx, g0 and d
	// mutate between calls, the closures read them by reference.
	var g0, fNew float64
	eval := func(step float64) float64 {
		for i := range x {
			trial[i] = x[i] + step*d[i]
		}
		return f(trial)
	}
	lineSearch := func() bool {
		step := 1.0
		for ls := 0; ls < 50; ls++ {
			ft := eval(step)
			if ft <= fx+1e-4*step*g0 {
				// Greedily expand while the objective keeps dropping; this
				// substitutes for a Wolfe curvature check and yields useful
				// (s, y) pairs in narrow valleys.
				for exp := 0; exp < 10; exp++ {
					ft2 := eval(2 * step)
					if ft2 >= ft || ft2 > fx+1e-4*2*step*g0 {
						break
					}
					step *= 2
					ft = ft2
				}
				fNew = eval(step)
				copy(xNew, trial)
				return true
			}
			step *= 0.5
		}
		return false
	}

	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if maxAbs(grad) < cfg.GradTol {
			//epoc:lint-ignore allochot exit-path result literal: allocates once per run, not per iteration
			return Result{X: x, F: fx, Iterations: iter, Converged: true}
		}
		// Two-loop recursion to get the search direction d = -H·grad.
		q := d
		copy(q, grad)
		k := hist.count
		for i := k - 1; i >= 0; i-- {
			j := hist.at(i)
			alpha[i] = hist.rho[j] * dot(hist.s[j], q)
			axpy(q, hist.y[j], -alpha[i])
		}
		// Initial Hessian scaling; without history, bound the first step
		// so a steep objective does not trigger a wall of backtracking.
		if k > 0 {
			j := hist.at(k - 1)
			gammaK := dot(hist.s[j], hist.y[j]) / dot(hist.y[j], hist.y[j])
			scale(q, gammaK)
		} else if g := maxAbs(q); g > 1 {
			scale(q, 1/g)
		}
		for i := 0; i < k; i++ {
			j := hist.at(i)
			beta := hist.rho[j] * dot(hist.y[j], q)
			axpy(q, hist.s[j], alpha[i]-beta)
		}
		scale(d, -1)

		// Armijo backtracking.
		g0 = dot(grad, d)
		if g0 >= 0 {
			// Not a descent direction (stale curvature); fall back to -grad.
			copy(d, grad)
			scale(d, -1)
			g0 = dot(grad, d)
			hist.reset()
		}
		if !lineSearch() {
			// Retry once along the raw negative gradient with fresh history.
			copy(d, grad)
			scale(d, -1)
			g0 = dot(grad, d)
			hist.reset()
			if !lineSearch() {
				//epoc:lint-ignore allochot exit-path result literal: allocates once per run, not per iteration
				return Result{X: x, F: fx, Iterations: iter, Converged: maxAbs(grad) < math.Sqrt(cfg.GradTol)}
			}
		}
		g(xNew, gradNew)

		for i := range x {
			s[i] = xNew[i] - x[i]
			y[i] = gradNew[i] - grad[i]
		}
		sy := dot(s, y)
		if sy > 1e-12 {
			hist.push(s, y, 1/sy)
		}
		if math.Abs(fx-fNew) < cfg.Tol*(1+math.Abs(fNew)) && maxAbs(gradNew) < math.Sqrt(cfg.GradTol) {
			copy(x, xNew)
			//epoc:lint-ignore allochot exit-path result literal: allocates once per run, not per iteration
			return Result{X: x, F: fNew, Iterations: iter, Converged: true}
		}
		copy(x, xNew)
		copy(grad, gradNew)
		fx = fNew
	}
	return Result{X: x, F: fx, Iterations: cfg.MaxIter, Converged: false}
}

// NelderMeadConfig controls the simplex search.
type NelderMeadConfig struct {
	MaxIter int     // iteration budget (default 2000)
	Tol     float64 // stop when the simplex f-spread < Tol (default 1e-10)
	Step    float64 // initial simplex edge (default 0.5)
}

func (c *NelderMeadConfig) defaults() {
	if c.MaxIter == 0 {
		c.MaxIter = 2000
	}
	if c.Tol == 0 {
		c.Tol = 1e-10
	}
	if c.Step == 0 {
		c.Step = 0.5
	}
}

// NelderMead minimizes f with the derivative-free simplex algorithm.
func NelderMead(f Objective, x0 []float64, cfg NelderMeadConfig) Result {
	cfg.defaults()
	n := len(x0)
	// Build the initial simplex.
	pts := make([][]float64, n+1)
	fv := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		p := make([]float64, n)
		copy(p, x0)
		if i > 0 {
			p[i-1] += cfg.Step
		}
		pts[i] = p
		fv[i] = f(p)
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	order := func() {
		// Insertion sort: simplexes are small.
		for i := 1; i <= n; i++ {
			for j := i; j > 0 && fv[j] < fv[j-1]; j-- {
				fv[j], fv[j-1] = fv[j-1], fv[j]
				pts[j], pts[j-1] = pts[j-1], pts[j]
			}
		}
	}
	centroid := make([]float64, n)
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		order()
		if fv[n]-fv[0] < cfg.Tol {
			return Result{X: pts[0], F: fv[0], Iterations: iter, Converged: true}
		}
		// Centroid of all but the worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += pts[i][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}
		worst := pts[n]
		refl := make([]float64, n)
		for j := 0; j < n; j++ {
			refl[j] = centroid[j] + alpha*(centroid[j]-worst[j])
		}
		fr := f(refl)
		switch {
		case fr < fv[0]:
			exp := make([]float64, n)
			for j := 0; j < n; j++ {
				exp[j] = centroid[j] + gamma*(refl[j]-centroid[j])
			}
			if fe := f(exp); fe < fr {
				pts[n], fv[n] = exp, fe
			} else {
				pts[n], fv[n] = refl, fr
			}
		case fr < fv[n-1]:
			pts[n], fv[n] = refl, fr
		default:
			contr := make([]float64, n)
			for j := 0; j < n; j++ {
				contr[j] = centroid[j] + rho*(worst[j]-centroid[j])
			}
			if fc := f(contr); fc < fv[n] {
				pts[n], fv[n] = contr, fc
			} else {
				// Shrink toward the best point.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					fv[i] = f(pts[i])
				}
			}
		}
	}
	order()
	return Result{X: pts[0], F: fv[0], Iterations: cfg.MaxIter, Converged: false}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(y, x []float64, a float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

func scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
