package causal

import (
	"fmt"
	"sort"

	"hyper/internal/relation"
)

// Block identifies one block of a block-independent decomposition: for each
// relation name, the row indexes belonging to the block (sorted ascending).
// Tuples in different blocks are causally independent (no path between any
// of their ground variables, Section 3.3).
type Block struct {
	Rows map[string][]int
}

// Decomposition is an ordered list of blocks forming a partition of the
// database.
type Decomposition struct {
	Blocks []Block
}

// NumBlocks returns the number of blocks.
func (d *Decomposition) NumBlocks() int { return len(d.Blocks) }

// Decompose computes the block-independent decomposition of db under model
// m. It performs a union-find over all tuples: tuples connected by a foreign
// key merge (their ground variables are linked through the FK join used by
// the USE view), and tuples of the relations named in a cross-tuple edge
// merge when they agree on the edge's GroupBy attribute. The result is
// deterministic: blocks are ordered by their smallest (relation, row) member.
//
// This is the linear-time procedure of Section 3.3: a single pass assigns
// each tuple to a component; no per-query work is needed.
func Decompose(db *relation.Database, m *Model) (*Decomposition, error) {
	uf, names, offset, _, err := tupleUnionFind(db, m)
	if err != nil {
		return nil, err
	}

	// Collect components into blocks keyed by representative.
	groups := uf.Groups()
	reps := make([]int, 0, len(groups))
	for r := range groups {
		reps = append(reps, r)
	}
	// Order blocks by smallest member for determinism.
	minOf := make(map[int]int, len(groups))
	for r, members := range groups {
		m0 := members[0]
		for _, x := range members {
			if x < m0 {
				m0 = x
			}
		}
		minOf[r] = m0
	}
	sort.Slice(reps, func(i, j int) bool { return minOf[reps[i]] < minOf[reps[j]] })

	dec := &Decomposition{}
	for _, r := range reps {
		b := Block{Rows: make(map[string][]int)}
		for _, id := range groups[r] {
			rel, row := locate(names, offset, db, id)
			b.Rows[rel] = append(b.Rows[rel], row)
		}
		for _, rows := range b.Rows {
			sort.Ints(rows)
		}
		dec.Blocks = append(dec.Blocks, b)
	}
	return dec, nil
}

// tupleUnionFind performs the union-find over all tuples shared by Decompose
// and RowBlocks: tuples connected by a foreign key merge, and tuples of the
// relations named in a cross-tuple edge merge when they agree on the edge's
// GroupBy attribute.
func tupleUnionFind(db *relation.Database, m *Model) (*UnionFind, []string, map[string]int, int, error) {
	// Assign a dense id to every tuple across relations.
	offset := make(map[string]int)
	total := 0
	names := db.Names()
	for _, n := range names {
		offset[n] = total
		total += db.Relation(n).Len()
	}
	uf := NewUnionFind(total)

	// 1. Foreign-key links: child tuple ~ parent tuple.
	for _, fk := range db.ForeignKeys() {
		parent := db.Relation(fk.Parent)
		child := db.Relation(fk.Child)
		pc := parent.Schema().MustIndex(fk.ParentCol)
		cc := child.Schema().MustIndex(fk.ChildCol)
		// Hash parent key -> row.
		idx := make(map[string]int, parent.Len())
		for i, row := range parent.Rows() {
			idx[row[pc].Key()] = i
		}
		for i, row := range child.Rows() {
			if p, ok := idx[row[cc].Key()]; ok {
				uf.Union(offset[fk.Child]+i, offset[fk.Parent]+p)
			}
		}
	}

	// 2. Cross-tuple causal edges: all tuples sharing a GroupBy value merge.
	if m != nil {
		for _, ce := range m.Cross {
			gRel, gAttr := SplitQualified(ce.GroupBy)
			if gRel == "" {
				gRel = ce.FromRel
			}
			r := db.Relation(gRel)
			if r == nil {
				return nil, nil, nil, 0, fmt.Errorf("causal: cross edge group relation %q not found", gRel)
			}
			gi, ok := r.Schema().Index(gAttr)
			if !ok {
				return nil, nil, nil, 0, fmt.Errorf("causal: cross edge group attribute %q not in %q", gAttr, gRel)
			}
			first := make(map[string]int)
			for i, row := range r.Rows() {
				k := row[gi].Key()
				if f, ok := first[k]; ok {
					uf.Union(offset[gRel]+f, offset[gRel]+i)
				} else {
					first[k] = i
				}
			}
		}
	}
	return uf, names, offset, total, nil
}

// RowBlocks computes the same decomposition as Decompose but returns only
// per-relation block ids (rowBlocks[rel][row] = block id) and the block
// count, skipping the per-block row-map materialization — the representation
// the engine's per-tuple accumulation actually needs. Block ids follow
// Decompose's ordering exactly: blocks are numbered by their smallest
// (relation, row) member, so the two APIs are interchangeable.
func RowBlocks(db *relation.Database, m *Model) (map[string][]int, int, error) {
	uf, names, offset, total, err := tupleUnionFind(db, m)
	if err != nil {
		return nil, 0, err
	}
	// Scanning dense ids in order assigns block ids by smallest member.
	// Roots are dense tuple ids, so a flat slice replaces the map on this
	// hot path (the scan runs once per view build, over every tuple of the
	// database).
	blockOf := make([]int, total)
	rootBlock := make([]int32, total)
	for i := range rootBlock {
		rootBlock[i] = -1
	}
	nBlocks := 0
	for id := 0; id < total; id++ {
		root := uf.Find(id)
		b := rootBlock[root]
		if b < 0 {
			b = int32(nBlocks)
			rootBlock[root] = b
			nBlocks++
		}
		blockOf[id] = int(b)
	}
	out := make(map[string][]int, len(names))
	for _, n := range names {
		o := offset[n]
		out[n] = blockOf[o : o+db.Relation(n).Len()]
	}
	return out, nBlocks, nil
}

func locate(names []string, offset map[string]int, db *relation.Database, id int) (string, int) {
	for i := len(names) - 1; i >= 0; i-- {
		n := names[i]
		if id >= offset[n] {
			return n, id - offset[n]
		}
	}
	panic("causal: tuple id out of range")
}

// GroundGraph materializes the full ground causal graph of db under model m:
// one node per (relation, row, attribute), intra-tuple edges from the
// attribute DAG, and cross-tuple edges expanded per GroupBy group. It is
// intended for small databases (tests, the toy example of Figure 1); block
// decomposition of large databases uses Decompose, which never materializes
// this graph.
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
				for i, row := range child.Rows() {
					k := row[cc].Key()
					idx[k] = append(idx[k], i)
				}
				for pi, prow := range parent.Rows() {
					for _, ci := range idx[prow[pc].Key()] {
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
		for i, row := range r.Rows() {
			k := row[gi].Key()
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
			if g.ConnectedTo(na, nb) {
				return false
			}
		}
	}
	return true
}
