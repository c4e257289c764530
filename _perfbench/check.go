package main

import (
	"fmt"

	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/hardware"
	"epoc/internal/linalg"
	"epoc/internal/qoc"
)

// Output checks. They run outside the timed part and compare each
// compile against a reference built here, not by the pipeline: the
// circuit's unitary assembled gate by gate, and (for full-GRAPE
// schedules) the unitary the pulses' own amplitudes implement.

// espSlack is how far below its claimed ESP fidelity a reconstructed
// schedule may land (the rule of internal/core/endtoend_test.go).
const espSlack = 0.05

// equivTol is the phase-insensitive distance a lowered circuit may be
// from its input (the tolerance of internal/core/equivalence_test.go).
const equivTol = 1e-2

// applyLocal left-multiplies the 2^n×2^n matrix u in place by op
// acting on targets. It equals EmbedOperator(op, targets, n)·u but
// costs O(4^n·2^k) rather than a dense 8^n product; qubit 0 is the
// least-significant bit of a basis index and targets[0] the
// least-significant bit of op's index, as in linalg.EmbedOperator.
func applyLocal(u, op *linalg.Matrix, targets []int) {
	dim, sub := u.Rows, 1<<len(targets)
	var mask int
	for _, t := range targets {
		mask |= 1 << t
	}
	rows := make([][]complex128, sub)
	in := make([]complex128, sub)
	for base := 0; base < dim; base++ {
		if base&mask != 0 {
			continue
		}
		// rows[s] is the row of u whose target bits spell s.
		for s := range rows {
			i := base
			for b, t := range targets {
				if s&(1<<b) != 0 {
					i |= 1 << t
				}
			}
			rows[s] = u.Data[i*dim : (i+1)*dim]
		}
		if sub == 2 {
			m00, m01, m10, m11 := op.Data[0], op.Data[1], op.Data[2], op.Data[3]
			r0, r1 := rows[0], rows[1]
			for col, a := range r0 {
				b := r1[col]
				r0[col], r1[col] = m00*a+m01*b, m10*a+m11*b
			}
			continue
		}
		for col := 0; col < dim; col++ {
			for s, r := range rows {
				in[s] = r[col]
			}
			for r, row := range rows {
				var acc complex128
				for s, v := range op.Data[r*sub : (r+1)*sub] {
					acc += v * in[s]
				}
				row[col] = acc
			}
		}
	}
}

// refUnitary is the circuit's full unitary, built gate by gate from
// each gate's own matrix.
func refUnitary(c *circuit.Circuit) *linalg.Matrix {
	u := linalg.Identity(1 << c.NumQubits)
	for _, op := range c.Ops {
		applyLocal(u, op.G.Matrix(), op.Qubits)
	}
	return u
}

// scheduleUnitary is the unitary the schedule's pulses implement: each
// pulse's amplitudes propagated through the device's block model, in
// schedule order, as in the end-to-end test this mirrors. Every pulse
// of a full-GRAPE schedule must carry its amplitudes.
func scheduleUnitary(res *core.Result, dev *hardware.Device, n int) (*linalg.Matrix, error) {
	u := linalg.Identity(1 << n)
	for _, item := range res.Schedule.Items {
		p := item.Pulse
		if p.Amps == nil {
			return nil, fmt.Errorf("pulse %q on %v has no amplitudes", p.Label, p.Qubits)
		}
		applyLocal(u, dev.BlockModel(len(p.Qubits)).Propagate(p.Amps), p.Qubits)
	}
	return u, nil
}

// checkFull verifies a full-GRAPE compile: the schedule's propagated
// pulses must implement the circuit at no less than its claimed ESP
// fidelity minus espSlack.
func checkFull(cc *circuitCase, res *core.Result) error {
	got, err := scheduleUnitary(res, cc.dev, cc.c.NumQubits)
	if err != nil {
		return err
	}
	if fid := qoc.Fidelity(got, refUnitary(cc.c)); fid < res.Fidelity-espSlack {
		return fmt.Errorf("reconstructed fidelity %.4f below claimed ESP %.4f - %.2f", fid, res.Fidelity, espSlack)
	}
	return nil
}

// checkLowered verifies an estimate-mode compile: the lowered gate
// circuit the QOC stage consumed must equal the input up to global
// phase.
func checkLowered(cc *circuitCase, res *core.Result) error {
	if res.Lowered == nil {
		return fmt.Errorf("result has no lowered circuit")
	}
	if d := linalg.PhaseDistance(refUnitary(cc.c), refUnitary(res.Lowered)); d > equivTol {
		return fmt.Errorf("lowered circuit is %.3g from the input (limit %g)", d, equivTol)
	}
	return nil
}
