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
		pc := parent.Coded(parent.Schema().MustIndex(fk.ParentCol))
		cc := child.Coded(child.Schema().MustIndex(fk.ChildCol))
		// The parent row of each key (the last holding it), and each child
		// code's parent code.
		last := make([]int, len(pc.Values))
		for i := range parent.Len() {
			last[pc.At(i)] = i
		}
		toParent := cc.Recode(pc)
		for i := range child.Len() {
			if p := toParent[cc.At(i)]; p >= 0 {
				uf.Union(offset[fk.Child]+i, offset[fk.Parent]+last[p])
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
			col := r.Coded(gi)
			first := make([]int, len(col.Values)) // first row + 1 per code
			for i := range r.Len() {
				if f := first[col.At(i)]; f > 0 {
					uf.Union(offset[gRel]+f-1, offset[gRel]+i)
				} else {
					first[col.At(i)] = i + 1
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
