package causal

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hyper/internal/stats"
)

// chain builds A -> B -> C ... over the given names.
func chain(names ...string) *Graph {
	g := NewGraph()
	for i := 0; i+1 < len(names); i++ {
		g.AddEdge(names[i], names[i+1])
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddEdge("A", "B")
	g.AddEdge("A", "B") // duplicate ignored
	g.AddEdge("B", "C")
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
	if got := g.Edges(); len(got) != 2 {
		t.Errorf("Edges = %v", got)
	}
	if !g.Has("A") || g.Has("Z") {
		t.Error("Has misbehaves")
	}
}

func TestTopoSortAndCycles(t *testing.T) {
	g := chain("A", "B", "C", "D")
	g.AddEdge("A", "C")
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("chain should be acyclic: %v", err)
	}
	nodes, pos := g.Nodes(), map[string]int{}
	for i, id := range order {
		pos[nodes[id]] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violates topological order %v", e, order)
		}
	}
	g.AddEdge("D", "A")
	if _, err := g.TopoSort(); err == nil {
		t.Error("cycle not detected: TopoSort should report the cycle")
	} else if !strings.Contains(err.Error(), "cycle through") {
		t.Errorf("TopoSort's error %q does not name the cycle", err)
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g := chain("A", "B", "C")
	g.AddEdge("X", "C")
	if got := g.Descendants("A"); !reflect.DeepEqual(got, []string{"B", "C"}) {
		t.Errorf("Descendants(A) = %v", got)
	}
	if !slices.Contains(g.Descendants("A"), "C") || slices.Contains(g.Descendants("C"), "A") {
		t.Error("C descends from A, not A from C")
	}
	if !connectedTo(g, "A", "X") { // undirected path via C
		t.Error("A and X connect through C undirected")
	}
	g2 := NewGraph()
	g2.AddNode("L")
	g2.AddNode("R")
	if connectedTo(g2, "L", "R") {
		t.Error("isolated nodes are not connected")
	}
}

func TestDSeparationClassicStructures(t *testing.T) {
	// Chain A -> B -> C: A ⟂ C | B, but not marginally.
	g := chain("A", "B", "C")
	if g.DSeparated([]string{"A"}, []string{"C"}, nil) {
		t.Error("chain: A and C are marginally dependent")
	}
	if !g.DSeparated([]string{"A"}, []string{"C"}, []string{"B"}) {
		t.Error("chain: conditioning on B blocks the path")
	}

	// Fork A <- B -> C: same pattern.
	g = NewGraph()
	g.AddEdge("B", "A")
	g.AddEdge("B", "C")
	if g.DSeparated([]string{"A"}, []string{"C"}, nil) {
		t.Error("fork: marginally dependent")
	}
	if !g.DSeparated([]string{"A"}, []string{"C"}, []string{"B"}) {
		t.Error("fork: blocked by B")
	}

	// Collider A -> B <- C: A ⟂ C, but dependent given B or B's descendant.
	g = NewGraph()
	g.AddEdge("A", "B")
	g.AddEdge("C", "B")
	g.AddEdge("B", "D")
	if !g.DSeparated([]string{"A"}, []string{"C"}, nil) {
		t.Error("collider: marginally independent")
	}
	if g.DSeparated([]string{"A"}, []string{"C"}, []string{"B"}) {
		t.Error("collider: conditioning on B opens the path")
	}
	if g.DSeparated([]string{"A"}, []string{"C"}, []string{"D"}) {
		t.Error("collider: conditioning on a descendant of B opens the path")
	}
}

// confounderGraph: classic X <- Z -> Y with X -> Y.
func confounderGraph() *Graph {
	g := NewGraph()
	g.AddEdge("Z", "X")
	g.AddEdge("Z", "Y")
	g.AddEdge("X", "Y")
	return g
}

func TestBackdoorCriterion(t *testing.T) {
	g := confounderGraph()
	if !g.IsBackdoorSet("X", []string{"Y"}, []string{"Z"}) {
		t.Error("{Z} is the textbook backdoor set")
	}
	if g.IsBackdoorSet("X", []string{"Y"}, nil) {
		t.Error("empty set leaves the backdoor path open")
	}
	// A descendant of X is never allowed.
	g.AddEdge("X", "M")
	if g.IsBackdoorSet("X", []string{"Y"}, []string{"Z", "M"}) {
		t.Error("descendants of the treatment are not allowed")
	}
	set, ok := g.BackdoorSet("X", []string{"Y"}, g.Nodes())
	if !ok || !reflect.DeepEqual(set, []string{"Z"}) {
		t.Errorf("BackdoorSet = %v, %v", set, ok)
	}
}

func TestBackdoorMDiagram(t *testing.T) {
	// M-bias: X <- A -> W <- B -> Y plus X -> Y. The empty set is valid; W
	// alone is NOT (conditioning on the collider W opens A-W-B).
	g := NewGraph()
	g.AddEdge("A", "X")
	g.AddEdge("A", "W")
	g.AddEdge("B", "W")
	g.AddEdge("B", "Y")
	g.AddEdge("X", "Y")
	if !g.IsBackdoorSet("X", []string{"Y"}, nil) {
		t.Error("M-diagram: empty set is valid")
	}
	if g.IsBackdoorSet("X", []string{"Y"}, []string{"W"}) {
		t.Error("M-diagram: {W} opens the collider path")
	}
	if !g.IsBackdoorSet("X", []string{"Y"}, []string{"W", "A"}) {
		t.Error("M-diagram: {W, A} re-blocks the opened path")
	}
	set, ok := g.BackdoorSet("X", []string{"Y"}, g.Nodes())
	if !ok || len(set) != 0 {
		t.Errorf("minimal backdoor should be empty, got %v", set)
	}
}

func TestBackdoorNoValidSet(t *testing.T) {
	// Hidden confounder reachable only through a node excluded from the
	// candidates: no valid set exists among candidates.
	g := confounderGraph()
	_, ok := g.BackdoorSet("X", []string{"Y"}, []string{})
	if ok {
		t.Error("no candidates: should report failure")
	}
}

// Property: a minimized backdoor set is always valid, and removing any
// single element breaks validity (minimality).
func TestBackdoorMinimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		g := randomDAG(rng, 8, 0.3)
		nodes := g.Nodes()
		if len(nodes) < 2 {
			return true
		}
		x, y := nodes[0], nodes[len(nodes)-1]
		if x == y {
			return true
		}
		set, ok := g.BackdoorSet(x, []string{y}, nodes)
		if !ok {
			return true
		}
		if !g.IsBackdoorSet(x, []string{y}, set) {
			return false
		}
		for i := range set {
			trial := append(append([]string{}, set[:i]...), set[i+1:]...)
			if g.IsBackdoorSet(x, []string{y}, trial) {
				return false // not minimal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomDAG builds a DAG over n nodes with edges only from lower to higher
// indices (guaranteeing acyclicity).
func randomDAG(rng *stats.RNG, n int, p float64) *Graph {
	g := NewGraph()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
		g.AddNode(names[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(names[i], names[j])
			}
		}
	}
	return g
}

// Property: random lower-to-higher DAGs are acyclic and topological order is
// consistent with edges.
func TestRandomDAGTopoProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(stats.NewRNG(seed), 10, 0.4)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make([]int, g.Len())
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[g.index[e[0]]] >= pos[g.index[e[1]]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(10)
	sets := func() int {
		roots := map[int]bool{}
		for i := range 10 {
			roots[uf.Find(i)] = true
		}
		return len(roots)
	}
	if n := sets(); n != 10 {
		t.Errorf("%d sets", n)
	}
	uf.Union(0, 1)
	uf.Union(1, 2)
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) {
		t.Error("Find misbehaves")
	}
	if n := sets(); n != 8 {
		t.Errorf("%d sets", n)
	}
	if uf.Union(0, 2) {
		t.Error("re-union should report no merge")
	}
	groups := map[int]int{} // representative -> set size
	for i := 0; i < 10; i++ {
		groups[uf.Find(i)]++
	}
	sizes := []int{}
	for _, n := range groups {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{1, 1, 1, 1, 1, 1, 1, 3}) {
		t.Errorf("group sizes = %v", sizes)
	}
}

// Property: union-find connectivity equals reachability of the union
// operations applied as undirected edges.
func TestUnionFindConnectivityProperty(t *testing.T) {
	f := func(pairsRaw []uint8) bool {
		const n = 12
		uf := NewUnionFind(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i+1 < len(pairsRaw); i += 2 {
			a, b := int(pairsRaw[i])%n, int(pairsRaw[i+1])%n
			uf.Union(a, b)
			adj[a][b], adj[b][a] = true, true
		}
		// Floyd-Warshall-style closure.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
			reach[i][i] = true
			copy(reach[i], adj[i])
			reach[i][i] = true
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (uf.Find(i) == uf.Find(j)) != reach[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
