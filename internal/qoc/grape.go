package qoc

import (
	"math"
	"math/cmplx"
	"math/rand"

	"epoc/internal/faultclock"
	"epoc/internal/linalg"
	"epoc/internal/linalg/kernel"
	"epoc/internal/obs"
)

// GRAPEConfig tunes the optimizer.
type GRAPEConfig struct {
	MaxIter   int     // iteration budget (default 300)
	Target    float64 // stop once fidelity reaches this (default 0.999)
	LearnRate float64 // Adam step size in amplitude units (default: MaxAmp/8)
	Seed      int64   // initial-guess RNG seed (default 1)

	// Gate, when non-nil, is checked once per iteration
	// (faultclock.SiteGRAPEIter): on cancellation the run stops and
	// Result.Err carries the context error; on deadline expiry it
	// stops with Result.Err = faultclock.ErrBudget. Either way the
	// returned Result is the best found so far.
	Gate *faultclock.Gate

	// BudgetIters, when > 0, is an externally imposed iteration budget
	// below MaxIter: the run stops after that many iterations with
	// Result.Err = faultclock.ErrBudget unless the target was reached
	// first. Unlike MaxIter (a tuning default), hitting BudgetIters
	// marks the result degraded. Being a plain per-run count, it is
	// deterministic at any worker count.
	BudgetIters int

	// Obs, when non-nil, records per-run convergence metrics: the
	// iteration count and final fidelity distributions, the early-stop
	// reason counters (qoc/grape/stop/*), and a bounded per-iteration
	// fidelity series under "qoc/grape/fidelity".
	Obs *obs.Recorder
}

func (c *GRAPEConfig) defaults() {
	if c.MaxIter == 0 {
		c.MaxIter = 300
	}
	if c.Target == 0 {
		c.Target = 0.999
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result is an optimized pulse schedule. A Result is always the best
// the optimizer found before it stopped — Err classifies why it
// stopped, so early exits still carry usable partial work.
type Result struct {
	Amps       [][]float64 // [slot][control], rad/ns
	Fidelity   float64     // |tr(U†·target)|/dim achieved
	Iterations int
	Slots      int
	Duration   float64 // ns

	// Err is nil when the run completed (target reached or MaxIter),
	// faultclock.ErrBudget when a time/iteration budget stopped it
	// early (the Result is the best-so-far and the caller should mark
	// the pipeline degraded), or a context error when it was canceled
	// (the caller should discard the Result and propagate).
	Err error
}

// Fidelity returns the phase-invariant gate fidelity |tr(A†B)|/dim.
func Fidelity(a, b *linalg.Matrix) float64 {
	return cmplx.Abs(linalg.HSInner(a, b)) / float64(a.Rows)
}

// GRAPE optimizes piecewise-constant control amplitudes over the given
// number of time slots to implement the target unitary up to global
// phase. Gradients are the standard first-order GRAPE gradients; the
// ascent uses Adam with projection onto the amplitude bounds.
func GRAPE(m *Model, target *linalg.Matrix, slots int, cfg GRAPEConfig) Result {
	cfg.defaults()
	nc := len(m.Controls)
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Initial guess: small random amplitudes.
	amps := make([][]float64, slots)
	for k := range amps {
		amps[k] = make([]float64, nc)
		for j := range amps[k] {
			amps[k][j] = (rng.Float64()*2 - 1) * m.MaxAmp[j] * 0.3
		}
	}
	return grapeFrom(m, target, amps, cfg)
}

// grapeFrom runs the GRAPE ascent from an explicit initial amplitude
// schedule (mutated in place as the working buffer). The ascent loop
// is the pipeline's hottest path: all per-iteration memory comes from
// the propagator cache and the per-run kernel workspace allocated up
// front, never from this loop body, and the propagator cache recomputes
// only the slices whose controls actually changed since the previous
// iteration (saturated or warm-started slices are reused).
//
//epoc:hot
func grapeFrom(m *Model, target *linalg.Matrix, amps [][]float64, cfg GRAPEConfig) Result {
	cfg.defaults()
	if target.Rows != m.Dim() {
		panic("qoc: target dimension does not match model")
	}
	nc := len(m.Controls)
	dim := m.Dim()
	slots := len(amps)

	lr := cfg.LearnRate
	//epoc:lint-ignore floatcmp zero-value sentinel: unset LearnRate defaults to 0.02
	if lr == 0 {
		lr = 0.02
	}
	mAdam := makeGrid(slots, nc)
	vAdam := makeGrid(slots, nc)
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	ws := kernel.NewWorkspace()
	props := newPropCache(m, slots, ws)
	left := linalg.NewMatrix(dim, dim)
	rl := linalg.NewMatrix(dim, dim)
	bestAmps := makeGrid(slots, nc)
	haveBest := false

	best := Result{Fidelity: -1}
	fid := 0.0
	iter := 0
	var stop error
	for ; iter < cfg.MaxIter; iter++ {
		// Forward propagation through the cache: unchanged slices keep
		// their step unitaries, prefix/suffix products rebuild only
		// from the first/last changed slice inward.
		u := props.update(amps)
		z := linalg.HSInner(target, u) // tr(target†·U)
		fid = cmplx.Abs(z) / float64(dim)
		cfg.Obs.Sample("qoc/grape/fidelity", fid)
		if fid > best.Fidelity {
			best.Fidelity = fid
			copyAmps(bestAmps, amps)
			haveBest = true
			best.Iterations = iter
		}
		if fid >= cfg.Target {
			break
		}
		// Budget/cancellation checks sit after the forward propagation
		// so even a first-iteration stop returns a Result whose
		// fidelity was actually evaluated, never uninitialized amps.
		if err := cfg.Gate.Check(faultclock.SiteGRAPEIter); err != nil {
			stop = err
			break
		}
		if cfg.BudgetIters > 0 && iter+1 >= cfg.BudgetIters {
			stop = faultclock.ErrBudget
			break
		}

		// Gradients: dz/du_{k,j} = -i·Dt·tr(target†·suffix_{k+1}·H_j·step_k·prefix_k)
		//                       = -i·Dt·tr(M_k·H_j·Nk) with trace cycling.
		// dF/du = Re(conj(z)·dz/du)/(|z|·dim).
		zConj := cmplx.Conj(z)
		zAbs := cmplx.Abs(z)
		if zAbs < 1e-14 {
			zAbs = 1e-14
		}
		for k := 0; k < slots; k++ {
			// left = target†·suffix_{k+1} (adjoint fused, never
			// materialized); right = step_k·prefix_k = prefix_{k+1}.
			linalg.AdjointMulInto(left, target, props.suffix[k+1])
			right := props.prefix[k+1]
			// tr(left·H_j·right) = tr((right·left)·H_j)
			linalg.MulInto(ws, rl, right, left)
			for j := 0; j < nc; j++ {
				tr := traceProduct(rl, m.Controls[j])
				dz := complex(0, -m.Dt) * tr
				grad := real(zConj*dz) / (zAbs * float64(dim))
				// Adam ascent step (maximize fidelity).
				mAdam[k][j] = beta1*mAdam[k][j] + (1-beta1)*grad
				vAdam[k][j] = beta2*vAdam[k][j] + (1-beta2)*grad*grad
				mh := mAdam[k][j] / (1 - math.Pow(beta1, float64(iter+1)))
				vh := vAdam[k][j] / (1 - math.Pow(beta2, float64(iter+1)))
				amps[k][j] += lr * m.MaxAmp[j] * mh / (math.Sqrt(vh) + eps)
				// Project onto the hardware amplitude bound.
				if amps[k][j] > m.MaxAmp[j] {
					amps[k][j] = m.MaxAmp[j]
				} else if amps[k][j] < -m.MaxAmp[j] {
					amps[k][j] = -m.MaxAmp[j]
				}
			}
		}
	}
	best.Slots = slots
	best.Duration = float64(slots) * m.Dt
	if haveBest {
		best.Amps = bestAmps
	} else {
		best.Amps = cloneAmps(amps)
	}
	best.Iterations = iter
	best.Err = stop
	if r := cfg.Obs; r != nil {
		reason := "max_iter"
		switch {
		case fid >= cfg.Target:
			reason = "target"
		case faultclock.IsBudget(stop):
			reason = "budget"
		case stop != nil:
			reason = "canceled"
		}
		r.Add("qoc/grape/runs", 1)
		r.Add("qoc/grape/stop/"+reason, 1)
		r.Observe("qoc/grape/iterations", float64(iter))
		r.Observe("qoc/grape/final_fidelity", best.Fidelity)
		r.Eventf("qoc/grape", "slots=%d iters=%d fid=%.6f stop=%s", slots, iter, best.Fidelity, reason)
	}
	return best
}

// makeGrid allocates a zeroed slots×nc working grid (one row per time
// slot, one column per control).
func makeGrid(slots, nc int) [][]float64 {
	g := make([][]float64, slots)
	for k := range g {
		g[k] = make([]float64, nc)
	}
	return g
}

// traceProduct returns tr(a·b) without materializing the product.
//
//epoc:hot
func traceProduct(a, b *linalg.Matrix) complex128 {
	var s complex128
	n := a.Rows
	for i := 0; i < n; i++ {
		arow := a.Data[i*n : (i+1)*n]
		for k, av := range arow {
			//epoc:lint-ignore floatcmp exact-zero sparsity fast path in the trace kernel
			if av == 0 {
				continue
			}
			s += av * b.Data[k*n+i]
		}
	}
	return s
}

func cloneAmps(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = append([]float64(nil), a[i]...)
	}
	return out
}

// copyAmps copies src into the preallocated dst grid of the same shape.
func copyAmps(dst, src [][]float64) {
	for i := range src {
		copy(dst[i], src[i])
	}
}

// Runner produces an optimized pulse for a given slot count; used by
// the duration search to abstract over GRAPE and CRAB.
type Runner func(slots int) Result

// SearchDuration finds the smallest slot count in [minSlots, maxSlots]
// whose fidelity reaches target, using binary search over the
// quantized slot grid (the AccQOC strategy). It returns the best pulse
// found; if even maxSlots cannot reach the target, the maxSlots result
// is returned with its achieved fidelity.
//
// The gate g (nil for unbudgeted searches) is checked before every
// probe (faultclock.SiteDurationProbe), and a probe that itself
// stopped early (Result.Err non-nil) stops the search. In both
// early-exit cases the search returns its best-so-far: the best
// Result across the probes that ran — target-reaching probes beat
// higher raw fidelity, and shorter target-reaching pulses beat longer
// ones — with Err set to the cause. A budget exit therefore still
// yields a usable (if longer-than-optimal) pulse; a cancellation exit
// tells the caller to discard it.
func SearchDuration(g *faultclock.Gate, minSlots, maxSlots, step int, target float64, run Runner) Result {
	if minSlots < 1 {
		minSlots = 1
	}
	if step < 1 {
		step = 1
	}
	// Quantized grid of candidate slot counts.
	var grid []int
	for s := minSlots; s < maxSlots; s += step {
		grid = append(grid, s)
	}
	grid = append(grid, maxSlots)

	best := Result{Fidelity: -1}
	haveBest := false
	// improves reports whether b beats the incumbent a.
	improves := func(a, b Result) bool {
		aHit, bHit := a.Fidelity >= target, b.Fidelity >= target
		if aHit != bHit {
			return bHit
		}
		if aHit && bHit {
			return b.Slots < a.Slots
		}
		return b.Fidelity > a.Fidelity
	}
	cache := map[int]Result{}
	memo := func(slots int) (Result, error) {
		if r, ok := cache[slots]; ok {
			return r, nil
		}
		if err := g.Check(faultclock.SiteDurationProbe); err != nil {
			return Result{}, err
		}
		r := run(slots)
		cache[slots] = r
		// Canceled probes are discarded; budget-degraded probes still
		// carry a best-so-far pulse and may stand as the search result.
		if r.Err == nil || faultclock.IsBudget(r.Err) {
			if !haveBest || improves(best, r) {
				best = r
				haveBest = true
			}
		}
		return r, r.Err
	}
	partial := func(err error) Result {
		out := best
		out.Err = err
		return out
	}

	lo, hi := 0, len(grid)-1
	r, err := memo(grid[hi])
	if err != nil {
		return partial(err)
	}
	if r.Fidelity < target {
		return r // even the longest pulse fails; report it
	}
	for lo < hi {
		mid := (lo + hi) / 2
		rm, err := memo(grid[mid])
		if err != nil {
			return partial(err)
		}
		if rm.Fidelity >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r, err = memo(grid[lo])
	if err != nil {
		return partial(err)
	}
	return r
}

// DurationSearch is SearchDuration specialized to GRAPE.
func DurationSearch(m *Model, target *linalg.Matrix, minSlots, maxSlots int, step int, cfg GRAPEConfig) Result {
	cfg.defaults()
	return SearchDuration(cfg.Gate, minSlots, maxSlots, step, cfg.Target, func(slots int) Result {
		return GRAPE(m, target, slots, cfg)
	})
}
