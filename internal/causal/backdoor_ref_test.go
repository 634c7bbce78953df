package causal

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// refDSeparated, refIsBackdoorSet and refBackdoorSet are the backdoor search
// as it ran before it walked node ids: a Bayes ball keyed by strings into a
// map, a copy of the graph per greedy trial, Descendants per trial. They are
// kept verbatim (but for being functions) as the oracle of the id walk.
func refDSeparated(g *Graph, xs, ys, z []string) bool {
	zset := make([]bool, len(g.nodes))
	for _, n := range z {
		if i, ok := g.index[n]; ok {
			zset[i] = true
		}
	}
	// ancestors of z (inclusive), needed for collider openings
	anc := make([]bool, len(g.nodes))
	var stack []int
	for i, in := range zset {
		if in {
			anc[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.in[n] {
			if !anc[p] {
				anc[p] = true
				stack = append(stack, p)
			}
		}
	}

	yset := make([]bool, len(g.nodes))
	for _, n := range ys {
		if i, ok := g.index[n]; ok {
			yset[i] = true
		}
	}

	// State: (node, direction) where direction is whether we arrived via an
	// edge pointing INTO the node (true) or OUT of it (false).
	type state struct {
		node int
		into bool
	}
	visited := make(map[state]bool)
	var frontier []state
	for _, n := range xs {
		if i, ok := g.index[n]; ok {
			// Leaving the source: treat as arriving from a virtual parent
			// (into=false lets us traverse both directions initially).
			frontier = append(frontier, state{i, false})
		}
	}
	for len(frontier) > 0 {
		s := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if visited[s] {
			continue
		}
		visited[s] = true
		n := s.node
		if yset[n] {
			return false // reached y: not d-separated
		}
		if !s.into {
			// Arrived via an outgoing edge (i.e., from a child) or source.
			if !zset[n] {
				for _, p := range g.in[n] {
					frontier = append(frontier, state{p, false})
				}
				for _, c := range g.out[n] {
					frontier = append(frontier, state{c, true})
				}
			}
		} else {
			// Arrived via an incoming edge (from a parent): n is a potential
			// collider on the path.
			if !zset[n] {
				for _, c := range g.out[n] {
					frontier = append(frontier, state{c, true})
				}
			}
			if anc[n] {
				// Collider open when n or a descendant is conditioned on.
				for _, p := range g.in[n] {
					frontier = append(frontier, state{p, false})
				}
			}
		}
	}
	return true
}

func refIsBackdoorSet(g *Graph, b string, ys []string, c []string) bool {
	desc := refDescendants(g, b)
	descSet := make(map[string]bool, len(desc))
	for _, d := range desc {
		descSet[d] = true
	}
	for _, n := range c {
		if descSet[n] || n == b {
			return false
		}
		found := false
		for _, y := range ys {
			if n == y {
				found = true
			}
		}
		if found {
			return false
		}
	}
	gb := refRemoveOutEdges(g, b)
	return refDSeparated(gb, []string{b}, ys, c)
}

func refBackdoorSet(g *Graph, b string, ys []string, cand []string) (set []string, ok bool) {
	bad := make(map[string]bool)
	for _, d := range refDescendants(g, append([]string{b}, ys...)...) {
		bad[d] = true
	}
	bad[b] = true
	for _, y := range ys {
		bad[y] = true
	}
	var c []string
	for _, n := range cand {
		if !bad[n] && g.Has(n) {
			c = append(c, n)
		}
	}
	sort.Strings(c)
	if !refIsBackdoorSet(g, b, ys, c) {
		return nil, false
	}
	// Greedy minimization; iterate until no single removal keeps validity.
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(c); i++ {
			trial := make([]string, 0, len(c)-1)
			trial = append(trial, c[:i]...)
			trial = append(trial, c[i+1:]...)
			if refIsBackdoorSet(g, b, ys, trial) {
				c = trial
				changed = true
				break
			}
		}
	}
	return c, true
}

// refRemoveOutEdges returns a copy of the graph with all edges leaving the
// named nodes deleted.
func refRemoveOutEdges(g *Graph, names ...string) *Graph {
	drop := make(map[int]bool)
	for _, n := range names {
		if i, ok := g.index[n]; ok {
			drop[i] = true
		}
	}
	ng := NewGraph()
	for _, n := range g.nodes {
		ng.AddNode(n)
	}
	for f, cs := range g.out {
		if drop[f] {
			continue
		}
		for _, c := range cs {
			ng.AddEdge(g.nodes[f], g.nodes[c])
		}
	}
	return ng
}

// refDescendants returns the names of all strict descendants of the named
// nodes, sorted.
func refDescendants(g *Graph, names ...string) []string {
	seen := make([]bool, len(g.nodes))
	var stack []int
	for _, n := range names {
		if i, ok := g.index[n]; ok {
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range g.out[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	var out []string
	for i, s := range seen {
		if s {
			out = append(out, g.nodes[i])
		}
	}
	sort.Strings(out)
	return out
}

// backdoorPool is the name alphabet of FuzzBackdoorParity: a drawn graph
// holds at most 16 of its 20 names, so some drawn names are always unknown.
const backdoorPool = "ABCDEFGHIJKLMQRSWXYZ"

// backdoorDraw reads a backdoor query from fuzz bytes, 0 once they run out.
type backdoorDraw []byte

func (d *backdoorDraw) next() int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b)
}

// names draws up to max pool names: duplicates and unknown names included,
// none (nil) for a count of 0.
func (d *backdoorDraw) names(max int) []string {
	var out []string
	for range d.next() % (max + 1) {
		out = append(out, backdoorPool[d.next()%len(backdoorPool):][:1])
	}
	return out
}

// backdoorCase decodes a DAG and a query: up to 16 node names added in the
// drawn order (the graph's ids, and a topological order), up to 40 edges
// between added nodes, each pointing from the earlier-added node to the
// later one, then the treatment, up to 3 outcomes, up to 23 candidates and
// up to 5 conditioning nodes.
func backdoorCase(data []byte) (g *Graph, b string, ys, cand, z []string) {
	d := backdoorDraw(data)
	g = NewGraph()
	for _, n := range d.names(16) {
		g.AddNode(n)
	}
	for range d.next() % 41 {
		from, to := d.names(1), d.names(1)
		if from == nil || to == nil {
			continue
		}
		f, okf := g.index[from[0]]
		t, okt := g.index[to[0]]
		if okf && okt && f != t {
			g.AddEdge(g.nodes[min(f, t)], g.nodes[max(f, t)])
		}
	}
	if bs := d.names(1); bs != nil {
		b = bs[0]
	}
	return g, b, d.names(3), d.names(23), d.names(5)
}

// encodeBackdoorCase is backdoorCase's inverse for seeds: nodes in a
// topological order, edges as "XY" pairs.
func encodeBackdoorCase(nodes string, edges []string, b string, ys, cand, z string) []byte {
	idx := func(c byte) byte {
		i := strings.IndexByte(backdoorPool, c)
		if i < 0 {
			panic("seed name " + string(c) + " is not in the pool")
		}
		return byte(i)
	}
	list := func(s string) []byte {
		out := []byte{byte(len(s))}
		for i := range len(s) {
			out = append(out, idx(s[i]))
		}
		return out
	}
	out := list(nodes)
	out = append(out, byte(len(edges)))
	for _, e := range edges {
		out = append(out, 1, idx(e[0]), 1, idx(e[1]))
	}
	out = append(out, list(b)...)
	out = append(out, list(ys)...)
	out = append(out, list(cand)...)
	return append(out, list(z)...)
}

// FuzzBackdoorParity holds the id walk to the string oracle: BackdoorSet
// must return the same ok and the same set in the same order, and
// IsBackdoorSet (on the conditioning set, the candidates and the found set)
// and DSeparated the same booleans, on random DAGs and queries with unknown
// and duplicate names and empty lists. The seeds are the classic
// structures of causal_test.go, and a graph whose greedy result depends on
// the candidates' order.
func FuzzBackdoorParity(f *testing.F) {
	f.Add(encodeBackdoorCase("ABC", []string{"AB", "BC"}, "A", "C", "ABC", "B"))              // chain
	f.Add(encodeBackdoorCase("BAC", []string{"BA", "BC"}, "A", "C", "CBA", "B"))              // fork
	f.Add(encodeBackdoorCase("ACBD", []string{"AB", "CB", "BD"}, "A", "C", "DCBA", "D"))      // collider
	f.Add(encodeBackdoorCase("ZXYM", []string{"ZX", "ZY", "XY", "XM"}, "X", "Y", "ZMXY", "")) // confounder
	f.Add(encodeBackdoorCase("ABXWY", []string{"AX", "AW", "BW", "BY", "XY"}, "X", "Y", "WAB", "W"))
	f.Add(encodeBackdoorCase("CXBY", []string{"CX", "CB", "BY", "XY"}, "X", "Y", "CBB", "C")) // two minimal sets
	f.Add(encodeBackdoorCase("ZXY", []string{"ZX", "ZY", "XY"}, "Q", "YQ", "", "RZ"))         // unknown names, no candidates
	f.Fuzz(func(t *testing.T, data []byte) {
		g, b, ys, cand, z := backdoorCase(data)
		set, ok := g.BackdoorSet(b, ys, cand)
		wantSet, wantOK := refBackdoorSet(g, b, ys, cand)
		if ok != wantOK || !slices.Equal(set, wantSet) {
			t.Fatalf("edges %v: BackdoorSet(%q, %q, %q) = %q, %v; the oracle %q, %v",
				g.Edges(), b, ys, cand, set, ok, wantSet, wantOK)
		}
		for _, c := range [][]string{z, cand, set} {
			if got, want := g.IsBackdoorSet(b, ys, c), refIsBackdoorSet(g, b, ys, c); got != want {
				t.Fatalf("edges %v: IsBackdoorSet(%q, %q, %q) = %v; the oracle %v", g.Edges(), b, ys, c, got, want)
			}
		}
		xs := append([]string{b}, z...)
		if got, want := g.DSeparated(xs, ys, cand), refDSeparated(g, xs, ys, cand); got != want {
			t.Fatalf("edges %v: DSeparated(%q, %q, %q) = %v; the oracle %v", g.Edges(), xs, ys, cand, got, want)
		}
	})
}
