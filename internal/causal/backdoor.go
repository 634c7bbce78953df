package causal

import (
	"slices"
	"sort"
)

// DSeparated reports whether every path between any x in xs and any y in ys
// is blocked by the conditioning set z, using the reachability ("Bayes
// ball") formulation of d-separation. Unknown names are ignored.
func (g *Graph) DSeparated(xs, ys, z []string) bool {
	return g.separated(g.ids(xs), g.ids(ys), g.ids(z), -1)
}

// separated is DSeparated over node ids in g with the edges out of cut
// removed (cut < 0 removes none): one ancestor pass over z, then one Bayes
// ball walk from xs (Shachter, 1998), both skipping cut's out-edges, so the
// backdoor test needs no copy of the graph.
func (g *Graph) separated(xs, ys, z []int, cut int) bool {
	n := len(g.nodes)
	marks := make([]bool, 5*n)
	inZ, isY, anc := marks[:n], marks[n:2*n], marks[2*n:3*n]
	// visited[2*node+1]: reached along an edge into node (from a parent);
	// visited[2*node]: reached from a child, or a start.
	visited := marks[3*n:]
	// ancestors of z (inclusive), needed for collider openings
	var stack []int
	for _, i := range z {
		inZ[i] = true
		if !anc[i] {
			anc[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.in[m] {
			if p != cut && !anc[p] {
				anc[p] = true
				stack = append(stack, p)
			}
		}
	}
	for _, i := range ys {
		isY[i] = true
	}

	// Leaving a source is treated as arriving from a child, which lets the
	// ball go both ways.
	for _, i := range xs {
		stack = append(stack, 2*i)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[s] {
			continue
		}
		visited[s] = true
		m, into := s/2, s%2 == 1
		if isY[m] {
			return false // reached y: not d-separated
		}
		// From a child or a start, the ball passes through an unconditioned
		// node both ways. From a parent, m is a potential collider: it
		// passes on to m's children unless m is conditioned, and back to
		// m's parents when m or a descendant is conditioned.
		if (!into && !inZ[m]) || (into && anc[m]) {
			for _, p := range g.in[m] {
				if p != cut {
					stack = append(stack, 2*p)
				}
			}
		}
		if !inZ[m] && m != cut {
			for _, c := range g.out[m] {
				stack = append(stack, 2*c+1)
			}
		}
	}
	return true
}

// IsBackdoorSet reports whether c satisfies Pearl's backdoor criterion with
// respect to treatment b and outcomes ys: no node of c is b, an outcome or a
// descendant of b, and c d-separates b from every y in the graph with b's
// outgoing edges removed (blocking exactly the backdoor paths).
func (g *Graph) IsBackdoorSet(b string, ys []string, c []string) bool {
	bi, known := g.index[b]
	var desc []bool
	if known {
		desc = g.descendants([]int{bi})
	}
	for _, n := range c {
		if n == b || slices.Contains(ys, n) {
			return false
		}
		if i, ok := g.index[n]; ok && known && desc[i] {
			return false
		}
	}
	if !known {
		return true // no path leaves an unknown treatment
	}
	return g.separated([]int{bi}, g.ids(ys), g.ids(c), bi)
}

// BackdoorSet returns a minimal (not necessarily minimum) set of attributes
// satisfying the backdoor criterion for treatment b and outcomes ys,
// restricted to the candidate attributes cand (pass g.Nodes() for no
// restriction). It follows the paper's greedy procedure (A.2 step B): start
// from all candidate non-descendants of {b} ∪ ys, sorted by name, and drop
// the first node whose removal keeps the set a valid backdoor set, until no
// removal does. ok is false when no valid backdoor set exists within the
// candidates.
func (g *Graph) BackdoorSet(b string, ys []string, cand []string) (set []string, ok bool) {
	seeds := g.ids(append([]string{b}, ys...))
	bad := g.descendants(seeds)
	for _, i := range seeds {
		bad[i] = true
	}
	var names []string
	for _, n := range cand {
		if i, ok := g.index[n]; ok && !bad[i] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	// The candidates are no descendants of b, b or an outcome, so validity is
	// the separation alone; an unknown b separates from anything.
	xs, cut := []int(nil), -1
	if bi, known := g.index[b]; known {
		xs, cut = []int{bi}, bi
	}
	yids, c := g.ids(ys), g.ids(names)
	if !g.separated(xs, yids, c, cut) {
		return nil, false
	}
	trial := make([]int, 0, len(c))
	for i := 0; i < len(c); i++ {
		trial = append(append(trial[:0], c[:i]...), c[i+1:]...)
		if g.separated(xs, yids, trial, cut) {
			c, trial = trial, c
			i = -1 // start over from the first candidate
		}
	}
	set = make([]string, len(c))
	for k, i := range c {
		set[k] = g.nodes[i]
	}
	return set, true
}
