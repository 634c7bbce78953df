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
// This is the linear-time procedure of the paper, one pass (Decompose):
// tuples connected by a foreign key merge (their ground variables are linked
// through the FK join used by the USE view), and tuples of the relations
// named in a cross-tuple edge merge when they agree on the edge's GroupBy
// attribute. With neither, nothing links and no union-find is made: each
// tuple is its own block, numbered in scan order.
func RowBlocks(db *relation.Database, m *Model) (map[string][]int32, int, error) {
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
	ByRel map[string][]int32 // per relation, each tuple's block id
	N     int                // the block count

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
	// claimed[k] is set by the first Extend to accept, which fills the room
	// past ByRel's k-th relation's ids in place.
	claimed []atomic.Bool
}

func crossEdges(m *Model) []CrossEdge {
	if m == nil {
		return nil
	}
	return m.Cross
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

// Decompose is RowBlocks with the state Extend needs: Extend from the
// decomposition of db's relations with no rows, the one builder of both.
func Decompose(db *relation.Database, m *Model) (*Blocks, error) {
	names, fks := db.Names(), db.ForeignKeys()
	empty := &Blocks{
		firstIn:     make([]int, len(names)),
		parentBlock: make([][]int32, len(fks)),
		childCodes:  make([]int, len(fks)),
		groupBlock:  make([][]int32, len(crossEdges(m))),
		claimed:     make([]atomic.Bool, len(names)),
	}
	b, _, err := empty.Extend(db, m, relation.Ancestor{Rows: make([]int, len(names))})
	return b, err
}

// Extend returns the decomposition of db, a version extending the one b
// decomposes (that one's row counts are from.Rows), and false when the rows
// past from cannot be decomposed on top of b: b's block ids and count must
// stay what Decompose gives db. It reads only the rows past from and the
// codes they add, joining them to b's blocks through its tables, and refuses
// — the caller then decomposes db whole — when
//   - a row past from joins two of b's blocks;
//   - a row past from joins a block whose smallest member lies in a later
//     relation, or starts a block while some block's smallest member does
//     (either would renumber blocks);
//   - a parent row past from holds a key that an earlier parent row or an
//     earlier child row holds (which parent row earlier children join moves).
//
// The error is a cross edge's GroupBy attribute missing from db.
func (b *Blocks) Extend(db *relation.Database, m *Model, from relation.Ancestor) (*Blocks, bool, error) {
	names, fks, cross := db.Names(), db.ForeignKeys(), crossEdges(m)
	if len(from.Rows) != len(names) || len(b.firstIn) != len(names) ||
		len(b.parentBlock) != len(fks) || len(b.groupBlock) != len(cross) {
		return nil, false, nil
	}
	// The rows past from are nodes base[k] + (row - from.Rows[k]).
	rel := make(map[string]int, len(names))
	base := make([]int, len(names)+1)
	for k, n := range names {
		rel[n] = k
		d := db.Relation(n).Len() - from.Rows[k]
		if d < 0 {
			return nil, false, nil
		}
		base[k+1] = base[k] + d
	}
	node := func(k, row int) int { return base[k] + row - from.Rows[k] }
	// Without a foreign key or a cross edge nothing links tuples: no
	// union-find, and every row past from starts a block of its own.
	var d *delta
	if len(fks) > 0 || len(cross) > 0 {
		d = &delta{uf: NewUnionFind(base[len(names)]), anchor: make([]int32, base[len(names)])}
	}

	out := &Blocks{ByRel: make(map[string][]int32, len(names)), claimed: make([]atomic.Bool, len(names))}
	for f, fk := range fks {
		pc, cc := fkColumns(db, fk)
		kp, kc := rel[fk.Parent], rel[fk.Child]
		old := b.parentBlock[f]
		// b's table, then each new key's last parent row until numbered.
		pb := make([]int32, len(pc.Values))
		copy(pb, old)
		for i, end := from.Rows[kp], db.Relation(fk.Parent).Len(); i < end; i++ {
			p := pc.At(i)
			if int(p) < len(old) {
				return nil, false, nil
			}
			pb[p] = int32(i)
		}
		if n := b.childCodes[f]; n > 0 {
			for _, v := range pc.Values[len(old):] {
				if c, ok := cc.Code(v); ok && int(c) < n { // an earlier child's key, now a new parent row's
					return nil, false, nil
				}
			}
		}
		// The parent code of each child code the rows past from hold (-1:
		// none), probed once per code, in code order; no other is read.
		toParent := make([]int32, len(cc.Values))
		childRows := db.Relation(fk.Child).Len()
		for i := from.Rows[kc]; i < childRows; i++ {
			toParent[cc.At(i)] = 1
		}
		for k, held := range toParent {
			if held != 0 {
				toParent[k] = -1
				if p, ok := pc.Code(cc.Values[k]); ok {
					toParent[k] = int32(p)
				}
			}
		}
		for i := from.Rows[kc]; i < childRows; i++ {
			switch p := toParent[cc.At(i)]; {
			case p < 0:
			case int(p) < len(old):
				d.attach(node(kc, i), old[p])
			default:
				d.union(node(kc, i), node(kp, int(pb[p])))
			}
		}
		out.parentBlock = append(out.parentBlock, pb)
		out.childCodes = append(out.childCodes, len(cc.Values))
	}
	groupRel := make([]int, len(cross))
	for e, ce := range cross {
		gRel, col, err := crossGroup(db, ce)
		if err != nil {
			return nil, false, err
		}
		k, old := rel[gRel], b.groupBlock[e]
		// b's table, then each new code's first row past from + 1 until
		// numbered.
		gb := make([]int32, len(col.Values))
		copy(gb, old)
		for i, end := from.Rows[k], db.Relation(gRel).Len(); i < end; i++ {
			switch g := col.At(i); {
			case int(g) < len(old):
				d.attach(node(k, i), old[g])
			case gb[g] > 0:
				d.union(node(k, i), node(k, int(gb[g])-1))
			default:
				gb[g] = int32(i) + 1
			}
		}
		groupRel[e] = k
		out.groupBlock = append(out.groupBlock, gb)
	}
	if d != nil && d.failed {
		return nil, false, nil
	}

	// Number the rows past from in scan order, so by smallest member.
	next := int32(b.N)
	var took []int
	for k, n := range names {
		// The first decomposition extending b takes the room past each
		// relation's ids and writes there, where no reader of b reads. A
		// refusal gives back the room it took, so the next accepted
		// derivation from b writes in place.
		own := b.claimed[k].CompareAndSwap(false, true)
		if own {
			took = append(took, k)
		}
		ids := relation.Lengthen(b.ByRel[n], db.Relation(n).Len(), own)
		var ok bool
		if next, ok = d.number(ids[from.Rows[k]:], base[k], int32(b.N), int32(b.firstIn[k]), next); !ok {
			for _, k := range took {
				b.claimed[k].Store(false)
			}
			return nil, false, nil
		}
		out.ByRel[n] = ids
		out.firstIn = append(out.firstIn, b.firstIn[k]+int(next)-b.N)
	}
	out.N = int(next)
	for f, pb := range out.parentBlock {
		ids := out.ByRel[fks[f].Parent]
		for p := len(b.parentBlock[f]); p < len(pb); p++ {
			pb[p] = ids[pb[p]]
		}
	}
	for e, gb := range out.groupBlock {
		ids := out.ByRel[names[groupRel[e]]]
		for g := len(b.groupBlock[e]); g < len(gb); g++ {
			gb[g] = ids[gb[g]-1]
		}
	}
	return out, true, nil
}

// delta joins the rows past Extend's ancestor: a union-find over them in
// which each component remembers the block it joined (anchor, by root: block
// id + 1; 0: none), and failed records a join of two of the ancestor's
// blocks.
type delta struct {
	uf     *UnionFind
	anchor []int32
	failed bool
}

// attach joins node x's component to the earlier block blk.
func (d *delta) attach(x int, blk int32) {
	r := d.uf.Find(x)
	switch d.anchor[r] {
	case 0:
		d.anchor[r] = blk + 1
	case blk + 1:
	default:
		d.failed = true
	}
}

// number gives ids, the rows of one relation that are nodes from, from+1,
// ..., their block ids in scan order, and returns the next new block's id,
// next after the blocks it opened, or false when that would renumber one of
// the ancestor's blocks (old of them, the first firstIn of which have their
// smallest member in this relation or an earlier one). A row joined to one of
// the ancestor's blocks takes its id, the first row of a new block the next
// id, and the new block's other rows that one. A nil d links no rows: every
// row opens a block. (The loop is a function of its own because written
// inline in Extend it kept its variables on the stack and ran at half the
// speed.)
func (d *delta) number(ids []int32, from int, old, firstIn, next int32) (int32, bool) {
	for i := range ids {
		blk, root := int32(-1), 0
		if d != nil {
			root = d.uf.Find(from + i)
			blk = d.anchor[root] - 1
		}
		switch {
		case blk >= old: // a new block, numbered at an earlier row
		case blk >= 0:
			if blk >= firstIn {
				return 0, false
			}
		case firstIn != old:
			return 0, false
		default:
			blk = next
			next++
			if d != nil {
				d.anchor[root] = blk + 1
			}
		}
		ids[i] = blk
	}
	return next, true
}

// union joins the components of nodes x and y.
func (d *delta) union(x, y int) {
	rx, ry := d.uf.Find(x), d.uf.Find(y)
	if rx == ry {
		return
	}
	ax, ay := d.anchor[rx], d.anchor[ry]
	if ax > 0 && ay > 0 && ax != ay {
		d.failed = true
	}
	d.uf.Union(rx, ry)
	d.anchor[d.uf.Find(rx)] = max(ax, ay)
}
