// Package causal implements the causal-graph substrate of HypeR: attribute
// level causal DAGs, d-separation and the backdoor criterion (Pearl), the
// ground causal graph over tuples, and block-independent decomposition of a
// database (Section 2.2 and 3.3 of the paper).
package causal

import (
	"fmt"
	"sort"
)

// Graph is a directed graph over named attribute nodes. HypeR uses qualified
// names ("Product.Price") for multi-relation databases and bare names for
// single-relation ones. Graphs are built once and then queried; they are not
// safe for concurrent mutation.
type Graph struct {
	nodes []string
	index map[string]int
	out   [][]int // children
	in    [][]int // parents
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[string]int)}
}

// AddNode inserts a node if absent and returns its id.
func (g *Graph) AddNode(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	i := len(g.nodes)
	g.nodes = append(g.nodes, name)
	g.index[name] = i
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return i
}

// AddEdge inserts a directed edge from -> to, adding missing nodes.
// Duplicate edges are ignored.
func (g *Graph) AddEdge(from, to string) {
	f, t := g.AddNode(from), g.AddNode(to)
	for _, c := range g.out[f] {
		if c == t {
			return
		}
	}
	g.out[f] = append(g.out[f], t)
	g.in[t] = append(g.in[t], f)
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Nodes returns all node names in insertion order.
func (g *Graph) Nodes() []string { return append([]string(nil), g.nodes...) }

// ID returns the id of the named node and whether it exists.
func (g *Graph) ID(name string) (int, bool) {
	i, ok := g.index[name]
	return i, ok
}

// Has reports whether the named node exists.
func (g *Graph) Has(name string) bool { _, ok := g.index[name]; return ok }

// Edges returns all edges as [from, to] name pairs, sorted.
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for f, cs := range g.out {
		for _, c := range cs {
			out = append(out, [2]string{g.nodes[f], g.nodes[c]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TopoSort returns node ids in a topological order, or an error naming one
// node on a cycle. The paper assumes acyclic models; HypeR validates this at
// model registration.
func (g *Graph) TopoSort() ([]int, error) {
	indeg := make([]int, len(g.nodes))
	for _, cs := range g.out {
		for _, c := range cs {
			indeg[c]++
		}
	}
	queue := make([]int, 0, len(g.nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	// Deterministic order: process smallest id first.
	sort.Ints(queue)
	order := make([]int, 0, len(g.nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		added := false
		for _, c := range g.out[n] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
				added = true
			}
		}
		if added {
			sort.Ints(queue)
		}
	}
	if len(order) != len(g.nodes) {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("causal: graph has a cycle through %q", g.nodes[i])
			}
		}
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycles.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// descendantsOf returns the set (as bool slice) of nodes reachable from any
// seed by directed edges, excluding the seeds themselves unless reachable.
func (g *Graph) reach(seeds []int, adj [][]int) []bool {
	seen := make([]bool, len(g.nodes))
	stack := append([]int(nil), seeds...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return seen
}

// Descendants returns the names of all strict descendants of the named
// nodes, sorted.
func (g *Graph) Descendants(names ...string) []string {
	seeds := g.ids(names)
	seen := g.reach(seeds, g.out)
	return g.selectNames(seen)
}

// IsDescendant reports whether b is a strict descendant of a.
func (g *Graph) IsDescendant(b, a string) bool {
	ai, ok := g.index[a]
	if !ok {
		return false
	}
	bi, ok := g.index[b]
	if !ok {
		return false
	}
	seen := g.reach([]int{ai}, g.out)
	return seen[bi]
}

// RemoveOutEdges returns a copy of the graph with all edges leaving the
// named nodes deleted; used by the backdoor test.
func (g *Graph) RemoveOutEdges(names ...string) *Graph {
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

func (g *Graph) ids(names []string) []int {
	var out []int
	for _, n := range names {
		if i, ok := g.index[n]; ok {
			out = append(out, i)
		}
	}
	return out
}

func (g *Graph) selectNames(seen []bool) []string {
	var out []string
	for i, s := range seen {
		if s {
			out = append(out, g.nodes[i])
		}
	}
	sort.Strings(out)
	return out
}
