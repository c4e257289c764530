package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func sphereGrad(x, g []float64) {
	for i := range x {
		g[i] = 2 * x[i]
	}
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i < len(x)-1; i++ {
		s += 100*math.Pow(x[i+1]-x[i]*x[i], 2) + math.Pow(1-x[i], 2)
	}
	return s
}

func TestLBFGSSphere(t *testing.T) {
	res := LBFGS(sphere, sphereGrad, []float64{5, -7, 2, 1}, LBFGSConfig{})
	if res.F > 1e-10 {
		t.Fatalf("LBFGS sphere: f=%v", res.F)
	}
	if !res.Converged {
		t.Fatal("LBFGS should converge on the sphere")
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	g := FiniteDiffGradient(rosenbrock, 1e-6)
	res := LBFGS(rosenbrock, g, []float64{-1.2, 1}, LBFGSConfig{MaxIter: 500})
	if res.F > 1e-6 {
		t.Fatalf("LBFGS Rosenbrock: f=%v x=%v", res.F, res.X)
	}
	for _, v := range res.X {
		if math.Abs(v-1) > 1e-3 {
			t.Fatalf("Rosenbrock minimizer should be (1,1): %v", res.X)
		}
	}
}

func TestFiniteDiffGradientMatchesAnalytic(t *testing.T) {
	g := FiniteDiffGradient(sphere, 1e-6)
	x := []float64{1.5, -0.5, 2}
	num := make([]float64, 3)
	ana := make([]float64, 3)
	g(x, num)
	sphereGrad(x, ana)
	for i := range x {
		if math.Abs(num[i]-ana[i]) > 1e-6 {
			t.Fatalf("grad[%d]: %v vs %v", i, num[i], ana[i])
		}
	}
}

func TestQuickLBFGSShiftedQuadratic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		obj := func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - target[i]
				s += d * d
			}
			return s
		}
		res := LBFGS(obj, FiniteDiffGradient(obj, 1e-7), make([]float64, 3), LBFGSConfig{})
		return res.F < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
