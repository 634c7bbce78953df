package causal

import (
	"fmt"

	"hyper/internal/relation"
)

// RowBlocks computes the block-independent decomposition of db under model
// m (Section 3.3) as per-relation block ids (rowBlocks[rel][row] = block id)
// and the block count. Tuples in different blocks are causally independent:
// no path joins any of their ground variables. Block ids are deterministic:
// blocks are numbered by their smallest (relation, row) member, relations
// in db.Names() order.
//
// This is the linear-time procedure of the paper: a single union-find pass
// assigns each tuple to a component; no per-query work is needed. Tuples
// connected by a foreign key merge (their ground variables are linked
// through the FK join used by the USE view), and tuples of the relations
// named in a cross-tuple edge merge when they agree on the edge's GroupBy
// attribute.
func RowBlocks(db *relation.Database, m *Model) (map[string][]int, int, error) {
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
				return nil, 0, fmt.Errorf("causal: cross edge group relation %q not found", gRel)
			}
			gi, ok := r.Schema().Index(gAttr)
			if !ok {
				return nil, 0, fmt.Errorf("causal: cross edge group attribute %q not in %q", gAttr, gRel)
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
