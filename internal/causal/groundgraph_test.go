package causal

import (
	"fmt"

	"hyper/internal/relation"
)

// GroundGraph materializes the full ground causal graph of db under model m:
// one node per (relation, row, attribute), intra-tuple edges from the
// attribute DAG, and cross-tuple edges expanded per GroupBy group — the
// oracle the linear-time decomposition, which never materializes it, is
// held to (TestBlocksMatchGroundGraph).
func GroundGraph(db *relation.Database, m *Model) (*Graph, error) {
	g := NewGraph()
	node := func(rel string, row int, attr string) string {
		return fmt.Sprintf("%s[%d].%s", rel, row, attr)
	}
	// Intra-tuple edges from the attribute DAG (same relation only).
	for _, e := range m.Attr.Edges() {
		fr, fa := SplitQualified(e[0])
		tr, ta := SplitQualified(e[1])
		if fr != tr {
			continue // cross-relation edges are handled via FK/cross rules
		}
		r := db.Relation(fr)
		if r == nil {
			return nil, fmt.Errorf("causal: ground graph: unknown relation %q", fr)
		}
		for i := 0; i < r.Len(); i++ {
			g.AddEdge(node(fr, i, fa), node(tr, i, ta))
		}
	}
	// Cross-relation intra-entity edges through foreign keys: an edge
	// Parent.A -> Child.B in the attribute DAG grounds to edges between each
	// parent row and its children (and vice versa for Child.A -> Parent.B).
	for _, e := range m.Attr.Edges() {
		fr, fa := SplitQualified(e[0])
		tr, ta := SplitQualified(e[1])
		if fr == tr {
			continue
		}
		for _, fk := range db.ForeignKeys() {
			var pRel, cRel string = fk.Parent, fk.Child
			if (fr == pRel && tr == cRel) || (fr == cRel && tr == pRel) {
				parent := db.Relation(pRel)
				child := db.Relation(cRel)
				pc := parent.Schema().MustIndex(fk.ParentCol)
				cc := child.Schema().MustIndex(fk.ChildCol)
				idx := make(map[string][]int)
				for i := range child.Len() {
					k := child.Value(i, cc).Key()
					idx[k] = append(idx[k], i)
				}
				for pi := range parent.Len() {
					for _, ci := range idx[parent.Value(pi, pc).Key()] {
						if fr == pRel {
							g.AddEdge(node(fr, pi, fa), node(tr, ci, ta))
						} else {
							g.AddEdge(node(fr, ci, fa), node(tr, pi, ta))
						}
					}
				}
			}
		}
	}
	// Cross-tuple edges: expand within each GroupBy group (distinct tuples).
	for _, ce := range m.Cross {
		gRel, gAttr := SplitQualified(ce.GroupBy)
		if gRel == "" {
			gRel = ce.FromRel
		}
		if gRel != ce.FromRel || ce.FromRel != ce.ToRel {
			// Cross edges across relations ground through the FK path above;
			// only same-relation group edges expand here.
			continue
		}
		r := db.Relation(gRel)
		gi := r.Schema().MustIndex(gAttr)
		groups := make(map[string][]int)
		for i := range r.Len() {
			k := r.Value(i, gi).Key()
			groups[k] = append(groups[k], i)
		}
		for _, rows := range groups {
			for _, i := range rows {
				for _, j := range rows {
					if i != j {
						g.AddEdge(node(ce.FromRel, i, ce.FromAttr), node(ce.ToRel, j, ce.ToAttr))
					}
				}
			}
		}
	}
	return g, nil
}

// Independent reports whether tuples (relA, rowA) and (relB, rowB) are
// independent under the ground graph g: no ground variable of one connects
// to any ground variable of the other.
func Independent(g *Graph, db *relation.Database, relA string, rowA int, relB string, rowB int) bool {
	ra, rb := db.Relation(relA), db.Relation(relB)
	for _, ca := range ra.Schema().Columns() {
		na := fmt.Sprintf("%s[%d].%s", relA, rowA, ca.Name)
		if !g.Has(na) {
			continue
		}
		for _, cb := range rb.Schema().Columns() {
			nb := fmt.Sprintf("%s[%d].%s", relB, rowB, cb.Name)
			if !g.Has(nb) {
				continue
			}
			if connectedTo(g, na, nb) {
				return false
			}
		}
	}
	return true
}

// connectedTo reports whether any undirected path connects a and b in g.
func connectedTo(g *Graph, a, b string) bool {
	ai, ok := g.index[a]
	if !ok {
		return false
	}
	bi, ok := g.index[b]
	if !ok {
		return false
	}
	if ai == bi {
		return true
	}
	seen := make([]bool, len(g.nodes))
	seen[ai] = true
	stack := []int{ai}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, adj := range [][]int{g.out[n], g.in[n]} {
			for _, m := range adj {
				if !seen[m] {
					if m == bi {
						return true
					}
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
	}
	return false
}
