package causal

import (
	"sync/atomic"

	"hyper/internal/relation"
)

// refDecompose is the fresh block decomposition as Decompose built it before
// it became Extend from the empty decomposition: its own union-find, FK,
// cross-edge and numbering passes, kept verbatim (but for int32 block ids)
// as the oracle of the one builder, fresh and derived.
func refDecompose(db *relation.Database, m *Model) (*Blocks, error) {
	// Assign a dense id to every tuple across relations.
	offset := make(map[string]int)
	total := 0
	names := db.Names()
	for _, n := range names {
		offset[n] = total
		total += db.Relation(n).Len()
	}
	b := &Blocks{}
	fks := db.ForeignKeys()
	var uf *UnionFind
	if len(fks) > 0 || (m != nil && len(m.Cross) > 0) {
		uf = NewUnionFind(total)
	}

	// 1. Foreign-key links: child tuple ~ parent tuple.
	lasts := make([][]int, len(fks))
	for f, fk := range fks {
		pc, cc := fkColumns(db, fk)
		// The parent row of each key (the last holding it), and each child
		// code's parent code.
		last := make([]int, len(pc.Values))
		for i := range db.Relation(fk.Parent).Len() {
			last[pc.At(i)] = i
		}
		lasts[f] = last
		toParent := cc.Recode(pc)
		for i := range db.Relation(fk.Child).Len() {
			if p := toParent[cc.At(i)]; p >= 0 {
				uf.Union(offset[fk.Child]+i, offset[fk.Parent]+last[p])
			}
		}
		b.childCodes = append(b.childCodes, len(cc.Values))
	}

	// 2. Cross-tuple causal edges: all tuples sharing a GroupBy value merge.
	var firsts [][]int
	if m != nil {
		for _, ce := range m.Cross {
			gRel, col, err := crossGroup(db, ce)
			if err != nil {
				return nil, err
			}
			first := make([]int, len(col.Values)) // first row + 1 per code
			for i := range db.Relation(gRel).Len() {
				if f := first[col.At(i)]; f > 0 {
					uf.Union(offset[gRel]+f-1, offset[gRel]+i)
				} else {
					first[col.At(i)] = i + 1
				}
			}
			for g := range first {
				first[g] += offset[gRel] - 1
			}
			firsts = append(firsts, first)
		}
	}

	// Scanning dense ids in order assigns block ids by smallest member.
	// Roots are dense tuple ids, so a flat slice replaces the map on this
	// hot path (the scan runs once per view build, over every tuple of the
	// database).
	blockOf := make([]int32, total)
	rootBlock := make([]int32, total) // by root: block id + 1; 0 while unnumbered
	b.ByRel = make(map[string][]int32, len(names))
	for _, n := range names {
		o, end := offset[n], offset[n]+db.Relation(n).Len()
		for id := o; id < end; id++ {
			root := id
			if uf != nil {
				root = uf.Find(id)
			}
			if rootBlock[root] == 0 {
				b.N++
				rootBlock[root] = int32(b.N)
			}
			blockOf[id] = rootBlock[root] - 1
		}
		b.ByRel[n] = blockOf[o:end:end]
		b.firstIn = append(b.firstIn, b.N)
	}
	b.claimed = make([]atomic.Bool, len(names))
	for f, fk := range fks {
		pb := make([]int32, len(lasts[f]))
		for p, row := range lasts[f] {
			pb[p] = int32(blockOf[offset[fk.Parent]+row])
		}
		b.parentBlock = append(b.parentBlock, pb)
	}
	for _, first := range firsts {
		gb := make([]int32, len(first))
		for g, id := range first {
			gb[g] = int32(blockOf[id])
		}
		b.groupBlock = append(b.groupBlock, gb)
	}
	return b, nil
}
