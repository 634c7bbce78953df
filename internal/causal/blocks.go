package causal

import (
	"fmt"
	"sync/atomic"

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
// attribute. With neither, nothing links and no union-find is made: each
// tuple is its own block, numbered in dense-id order by the same scan.
func RowBlocks(db *relation.Database, m *Model) (map[string][]int, int, error) {
	b, err := Decompose(db, m)
	if err != nil {
		return nil, 0, err
	}
	return b.ByRel, b.N, nil
}

// Blocks is RowBlocks' decomposition of one database version together with
// what Extend reads to decompose a later version from it: all of it numbers,
// none of it a reference to the version's relations.
type Blocks struct {
	ByRel map[string][]int // per relation, each tuple's block id
	N     int              // the block count

	// firstIn[k] counts the blocks whose smallest member is a tuple of the
	// first k+1 relations: blocks are numbered by smallest member, so those
	// are the blocks [0, firstIn[k]).
	firstIn []int
	// Per foreign key (db.ForeignKeys() order): per code of the parent
	// column, the block of the last parent row holding it (the row the
	// key's children join), and the child column's code count.
	parentBlock [][]int32
	childCodes  []int
	// Per cross edge (m.Cross order): per code of the GroupBy column, the
	// block of the rows holding it.
	groupBlock [][]int32
	// claimed[k] is set by the first Extend, which fills the room past
	// ByRel's k-th relation's ids in place.
	claimed []atomic.Bool
}

// crossGroup resolves a cross edge's GroupBy attribute to its relation and
// column.
func crossGroup(db *relation.Database, ce CrossEdge) (string, *relation.CodedColumn, error) {
	gRel, gAttr := SplitQualified(ce.GroupBy)
	if gRel == "" {
		gRel = ce.FromRel
	}
	r := db.Relation(gRel)
	if r == nil {
		return "", nil, fmt.Errorf("causal: cross edge group relation %q not found", gRel)
	}
	gi, ok := r.Schema().Index(gAttr)
	if !ok {
		return "", nil, fmt.Errorf("causal: cross edge group attribute %q not in %q", gAttr, gRel)
	}
	return gRel, r.Coded(gi), nil
}

// fkColumns returns a foreign key's parent and child columns.
func fkColumns(db *relation.Database, fk relation.ForeignKey) (pc, cc *relation.CodedColumn) {
	parent, child := db.Relation(fk.Parent), db.Relation(fk.Child)
	return parent.Coded(parent.Schema().MustIndex(fk.ParentCol)), child.Coded(child.Schema().MustIndex(fk.ChildCol))
}

// Decompose is RowBlocks with the state Extend needs.
func Decompose(db *relation.Database, m *Model) (*Blocks, error) {
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
	blockOf := make([]int, total)
	rootBlock := make([]int32, total) // by root: block id + 1; 0 while unnumbered
	b.ByRel = make(map[string][]int, len(names))
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
			blockOf[id] = int(rootBlock[root] - 1)
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

// Extend returns the decomposition of db, a version extending the one b
// decomposes (that one's row counts are from.Rows), and false when the rows
// past from cannot be decomposed on top of b: b's block ids and count must
// stay what Decompose gives db. It reads only the appended rows and the codes
// they add, joining them to b's blocks through its tables, and refuses — the
// caller then decomposes db whole — when
//   - an appended row joins two of b's blocks;
//   - an appended row joins a block whose smallest member lies in a later
//     relation, or starts a block while some block's smallest member does
//     (either would renumber blocks);
//   - an appended parent row holds a key that an earlier parent row or an
//     earlier child row holds (which parent row earlier children join moves).
func (b *Blocks) Extend(db *relation.Database, m *Model, from relation.Ancestor) (*Blocks, bool) {
	names := db.Names()
	fks := db.ForeignKeys()
	var cross []CrossEdge
	if m != nil {
		cross = m.Cross
	}
	if len(from.Rows) != len(names) || len(b.firstIn) != len(names) ||
		len(b.parentBlock) != len(fks) || len(b.groupBlock) != len(cross) {
		return nil, false
	}
	// The appended rows are nodes base[k] + (row - from.Rows[k]).
	rel := make(map[string]int, len(names))
	base := make([]int, len(names)+1)
	for k, n := range names {
		rel[n] = k
		d := db.Relation(n).Len() - from.Rows[k]
		if d < 0 {
			return nil, false
		}
		base[k+1] = base[k] + d
	}
	node := func(k, row int) int { return base[k] + row - from.Rows[k] }
	d := newDelta(base[len(names)])

	out := &Blocks{ByRel: make(map[string][]int, len(names)), N: b.N, claimed: make([]atomic.Bool, len(names))}
	for f, fk := range fks {
		pc, cc := fkColumns(db, fk)
		kp, kc := rel[fk.Parent], rel[fk.Child]
		old := b.parentBlock[f]
		// The last appended parent row of each key that is new.
		last := make([]int, len(pc.Values)-len(old))
		for i, end := from.Rows[kp], db.Relation(fk.Parent).Len(); i < end; i++ {
			p := pc.At(i)
			if int(p) < len(old) {
				return nil, false
			}
			if c, ok := cc.Code(pc.Values[p]); ok && int(c) < b.childCodes[f] {
				return nil, false
			}
			last[int(p)-len(old)] = i
		}
		toParent := make(map[uint32]int32)
		for i, end := from.Rows[kc], db.Relation(fk.Child).Len(); i < end; i++ {
			code := cc.At(i)
			p, seen := toParent[code]
			if !seen {
				p = -1
				if pcode, ok := pc.Code(cc.Values[code]); ok {
					p = int32(pcode)
				}
				toParent[code] = p
			}
			switch {
			case p < 0:
			case int(p) < len(old):
				d.attach(node(kc, i), old[p])
			default:
				d.union(node(kc, i), node(kp, last[int(p)-len(old)]))
			}
		}
		pb := append(make([]int32, 0, len(pc.Values)), old...)
		for _, row := range last {
			pb = append(pb, int32(node(kp, row))) // a node until numbered below
		}
		out.parentBlock = append(out.parentBlock, pb)
		out.childCodes = append(out.childCodes, len(cc.Values))
	}
	for e, ce := range cross {
		gRel, col, err := crossGroup(db, ce)
		if err != nil {
			return nil, false
		}
		k, old := rel[gRel], b.groupBlock[e]
		first := make([]int, len(col.Values)-len(old)) // first appended row + 1 per new code
		for i, end := from.Rows[k], db.Relation(gRel).Len(); i < end; i++ {
			g := int(col.At(i))
			switch {
			case g < len(old):
				d.attach(node(k, i), old[g])
			case first[g-len(old)] > 0:
				d.union(node(k, i), node(k, first[g-len(old)]-1))
			default:
				first[g-len(old)] = i + 1
			}
		}
		gb := append(make([]int32, 0, len(col.Values)), old...)
		for _, row := range first {
			gb = append(gb, int32(node(k, row-1)))
		}
		out.groupBlock = append(out.groupBlock, gb)
	}
	if d.failed {
		return nil, false
	}

	// Number the appended rows in scan order: a row joined to one of b's
	// blocks takes its id, the first row of a new block the next id.
	blockOf := make([]int32, base[len(names)])
	newBlock := make([]int32, len(blockOf)) // by root: id + 1 of its new block
	for k, n := range names {
		// The first decomposition extending b takes the room past each
		// relation's ids and writes there, where no reader of b reads.
		ids := relation.Lengthen(b.ByRel[n], db.Relation(n).Len(), b.claimed[k].CompareAndSwap(false, true))
		for i, end := from.Rows[k], len(ids); i < end; i++ {
			x := node(k, i)
			root := d.uf.Find(x)
			switch blk := d.anchor[root]; {
			case blk >= 0:
				if int(blk) >= b.firstIn[k] {
					return nil, false
				}
				blockOf[x] = blk
			case newBlock[root] > 0:
				blockOf[x] = newBlock[root] - 1
			default:
				if b.firstIn[k] != b.N {
					return nil, false
				}
				blockOf[x] = int32(out.N)
				newBlock[root] = blockOf[x] + 1
				out.N++
			}
			ids[i] = int(blockOf[x])
		}
		out.ByRel[n] = ids
		out.firstIn = append(out.firstIn, b.firstIn[k]+out.N-b.N)
	}
	for f, pb := range out.parentBlock {
		for p := len(b.parentBlock[f]); p < len(pb); p++ {
			pb[p] = blockOf[pb[p]]
		}
	}
	for e, gb := range out.groupBlock {
		for g := len(b.groupBlock[e]); g < len(gb); g++ {
			gb[g] = blockOf[gb[g]]
		}
	}
	return out, true
}

// delta joins the appended rows of Extend: a union-find over them in which
// each component remembers the earlier block it joined (anchor, by root; -1:
// none), and failed records a join of two earlier blocks.
type delta struct {
	uf     *UnionFind
	anchor []int32
	failed bool
}

func newDelta(n int) *delta {
	d := &delta{uf: NewUnionFind(n), anchor: make([]int32, n)}
	for i := range d.anchor {
		d.anchor[i] = -1
	}
	return d
}

// attach joins node x's component to the earlier block blk.
func (d *delta) attach(x int, blk int32) {
	r := d.uf.Find(x)
	switch d.anchor[r] {
	case -1:
		d.anchor[r] = blk
	case blk:
	default:
		d.failed = true
	}
}

// union joins the components of nodes x and y.
func (d *delta) union(x, y int) {
	rx, ry := d.uf.Find(x), d.uf.Find(y)
	if rx == ry {
		return
	}
	ax, ay := d.anchor[rx], d.anchor[ry]
	if ax >= 0 && ay >= 0 && ax != ay {
		d.failed = true
	}
	d.uf.Union(rx, ry)
	d.anchor[d.uf.Find(rx)] = max(ax, ay)
}
