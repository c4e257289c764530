// Package partition implements EPOC's greedy circuit partitioning
// (Algorithm 1 of the paper): qubits are grouped by interaction
// ("horizontal cutting"), then each group's blocks are filled with as
// many gates as possible up to a size limit ("vertical cutting"). Ops
// that span two groups become singleton bridge blocks, preserving
// dependency order.
package partition

import (
	"fmt"
	"sort"

	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// Block is a contiguous group of gates over a small qubit set.
type Block struct {
	Qubits []int            // global qubit ids, ascending
	Local  *circuit.Circuit // ops remapped onto local indices 0..len(Qubits)-1
	Bridge bool             // true when the block is a single group-spanning op
}

// Unitary returns the block's unitary over its local qubit ordering.
func (b *Block) Unitary() *linalg.Matrix { return b.Local.Unitary() }

// Options bounds the partition.
type Options struct {
	MaxQubits int // qubits per group (paper: up to 8; default 3)
	MaxGates  int // gates per block before a vertical cut (default 16)
}

func (o *Options) defaults() {
	if o.MaxQubits <= 0 {
		o.MaxQubits = 3
	}
	if o.MaxGates <= 0 {
		o.MaxGates = 16
	}
}

// GroupQubits performs the horizontal cut: starting from each unvisited
// qubit, it pulls in interaction-graph neighbors until MaxQubits is
// reached (Algorithm 1, procedure GroupQubits).
func GroupQubits(c *circuit.Circuit, maxQubits int) [][]int {
	if maxQubits <= 0 {
		maxQubits = 3
	}
	// Interaction graph: counts of multi-qubit ops between qubit pairs.
	adj := make(map[int]map[int]int)
	for _, op := range c.Ops {
		for i := 0; i < len(op.Qubits); i++ {
			for j := i + 1; j < len(op.Qubits); j++ {
				a, b := op.Qubits[i], op.Qubits[j]
				if adj[a] == nil {
					adj[a] = map[int]int{}
				}
				if adj[b] == nil {
					adj[b] = map[int]int{}
				}
				adj[a][b]++
				adj[b][a]++
			}
		}
	}
	taken := make([]bool, c.NumQubits)
	var groups [][]int
	for q := 0; q < c.NumQubits; q++ {
		if taken[q] {
			continue
		}
		group := []int{q}
		taken[q] = true
		// Pull in the most strongly interacting available neighbors,
		// tie-breaking on the smallest qubit id for determinism.
		for len(group) < maxQubits {
			best, bestW := -1, 0
			for _, m := range group {
				for nb := 0; nb < c.NumQubits; nb++ {
					w := adj[m][nb]
					if taken[nb] || w == 0 {
						continue
					}
					if w > bestW || (w == bestW && nb < best) {
						best, bestW = nb, w
					}
				}
			}
			if best == -1 {
				break
			}
			group = append(group, best)
			taken[best] = true
		}
		sort.Ints(group)
		groups = append(groups, group)
	}
	return groups
}

// Partition splits the circuit into ordered blocks (Algorithm 1).
func Partition(c *circuit.Circuit, opts Options) []Block {
	opts.defaults()
	groups := GroupQubits(c, opts.MaxQubits)
	groupOf := make([]int, c.NumQubits)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, g := range groups {
		for _, q := range g {
			groupOf[q] = gi
		}
	}

	var blocks []Block
	open := make([]*[]circuit.Op, len(groups)) // pending ops per group

	closeGroup := func(gi int) {
		if open[gi] == nil || len(*open[gi]) == 0 {
			return
		}
		blocks = append(blocks, buildBlock(*open[gi], false))
		open[gi] = nil
	}

	for _, op := range c.Ops {
		gi := groupOf[op.Qubits[0]]
		same := true
		for _, q := range op.Qubits[1:] {
			if groupOf[q] != gi {
				same = false
				break
			}
		}
		if !same {
			// Bridge op: close every group it touches, emit it alone.
			seen := map[int]bool{}
			for _, q := range op.Qubits {
				if g := groupOf[q]; !seen[g] {
					seen[g] = true
					closeGroup(g)
				}
			}
			blocks = append(blocks, buildBlock([]circuit.Op{op}, true))
			continue
		}
		if open[gi] == nil {
			ops := make([]circuit.Op, 0, opts.MaxGates)
			open[gi] = &ops
		}
		*open[gi] = append(*open[gi], op)
		if len(*open[gi]) >= opts.MaxGates {
			closeGroup(gi)
		}
	}
	for gi := range groups {
		closeGroup(gi)
	}
	return blocks
}

// buildBlock remaps ops onto local qubit indices.
func buildBlock(ops []circuit.Op, bridge bool) Block {
	qset := map[int]bool{}
	for _, op := range ops {
		for _, q := range op.Qubits {
			qset[q] = true
		}
	}
	qubits := make([]int, 0, len(qset))
	for q := range qset {
		qubits = append(qubits, q)
	}
	sort.Ints(qubits)
	localOf := map[int]int{}
	for i, q := range qubits {
		localOf[q] = i
	}
	local := circuit.New(len(qubits))
	for _, op := range ops {
		lq := make([]int, len(op.Qubits))
		for i, q := range op.Qubits {
			lq[i] = localOf[q]
		}
		local.Append(op.G, lq...)
	}
	return Block{Qubits: qubits, Local: local, Bridge: bridge}
}

// ToBlockCircuit lowers a block list back to a circuit whose ops are
// explicit unitary block gates (plus untouched bridge ops), preserving
// order. This is the representation consumed by synthesis.
func ToBlockCircuit(n int, blocks []Block) *circuit.Circuit {
	out := circuit.New(n)
	for _, b := range blocks {
		if b.Bridge && b.Local.Len() == 1 {
			op := b.Local.Ops[0]
			qs := make([]int, len(op.Qubits))
			for i, lq := range op.Qubits {
				qs[i] = b.Qubits[lq]
			}
			out.Append(op.G, qs...)
			continue
		}
		out.Append(gate.NewUnitary(b.Unitary()), b.Qubits...)
	}
	return out
}

// Validate checks that a partition is a faithful reordering of the
// original circuit: same per-qubit op subsequences. It returns an error
// describing the first discrepancy.
func Validate(c *circuit.Circuit, blocks []Block) error {
	var flat []circuit.Op
	for _, b := range blocks {
		for _, op := range b.Local.Ops {
			qs := make([]int, len(op.Qubits))
			for i, lq := range op.Qubits {
				qs[i] = b.Qubits[lq]
			}
			flat = append(flat, circuit.Op{G: op.G, Qubits: qs})
		}
	}
	if len(flat) != len(c.Ops) {
		return fmt.Errorf("partition: op count changed: %d -> %d", len(c.Ops), len(flat))
	}
	for q := 0; q < c.NumQubits; q++ {
		orig := opsOnQubit(c.Ops, q)
		part := opsOnQubit(flat, q)
		if len(orig) != len(part) {
			return fmt.Errorf("partition: qubit %d op count %d -> %d", q, len(orig), len(part))
		}
		for i := range orig {
			if orig[i] != part[i] {
				return fmt.Errorf("partition: qubit %d op %d reordered: %s vs %s", q, i, orig[i], part[i])
			}
		}
	}
	return nil
}

func opsOnQubit(ops []circuit.Op, q int) []string {
	var out []string
	for _, op := range ops {
		for _, oq := range op.Qubits {
			if oq == q {
				out = append(out, op.String())
				break
			}
		}
	}
	return out
}
