package engine

import (
	"encoding/binary"
	"math"
	"sync"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// Tuple classes. A tuple's contribution (tuple) and its training label under
// any post event (labelFor) are functions of whether WHEN selected the tuple
// and of its own values in a handful of view columns — nothing else about the
// row, and nothing about its position. Rows that agree on all of those form a
// class, and a view whose columns are small discrete domains has far fewer
// classes than rows (German-Syn: a few hundred for 5,000), so the expression
// interpreter runs once per class and the rows gather its result. The rows
// are still added one by one in row order — the partition changes who
// computes an addend, never which addends are added or in what order — so
// every partial, block sum and answer keeps its bits at any fan-out.

// classKey is the radix packing of a tuple class: digit 0 is the WHEN bit,
// digit j+1 the relation.Coded code of the j-th column tuple() reads.
type classKey struct {
	cols   []*relation.CodedColumn
	stride []uint64
	space  uint64 // product of the alphabets: every key is below it
}

// classColumns lists the view columns through which tuple() and the label
// functions read a row: the prediction features (a ψ summary is a per-group
// constant, before and after the update, and stands for its group column),
// the update attributes (post-update values and the affected bit derive from
// the WHEN bit and the pre-update value), Y, and whatever the normalised FOR
// literals and the OUTPUT condition reference, all of them view columns
// (Resolve).
func (p *Prepared) classColumns() (cols []int) {
	sch := p.v.Rel.Schema()
	seen := make([]bool, sch.Len())
	add := func(ci int) {
		if !seen[ci] {
			seen[ci] = true
			cols = append(cols, ci)
		}
	}
	for _, name := range p.featCols {
		if ci, isCol := sch.Index(name); isCol { // otherwise a ψ feature
			add(ci)
		}
	}
	for _, s := range p.psi {
		add(s.group)
	}
	for _, ci := range p.updIdx {
		add(ci)
	}
	if p.yIdx >= 0 {
		add(p.yIdx)
	}
	exprs := []hyperql.Expr{p.outCond}
	for _, d := range p.disjuncts {
		exprs = append(append(exprs, d.pre...), d.post...)
	}
	for _, x := range exprs {
		for _, c := range hyperql.ColRefs(x) {
			add(sch.MustIndex(c.Name))
		}
	}
	return cols
}

// classKey packs the class columns, or reports that the rows must be
// evaluated one by one. Every rule reads the data, none is a setting: a
// column is not exact (its codes follow
// Value.Key(), which merges -0.0 with +0.0 and Int 0, Int 3 with Float 3.0 and
// all NaNs, so a class representative's Y or arithmetic could differ from the
// row's in bits); a column alone has more distinct values than half the rows
// (continuous attributes: nothing would collapse); or the alphabets' product
// overflows the key. The view must not be empty.
func (p *Prepared) classKey() (classKey, bool) {
	cols := p.classColumns()
	rel := p.v.Rel
	k := classKey{cols: make([]*relation.CodedColumn, len(cols)), stride: make([]uint64, len(cols)), space: 2}
	for j, ci := range cols {
		cc := rel.Coded(ci)
		alpha := uint64(len(cc.Values))
		if !cc.Exact || cc.Card() > rel.Len()/2 || k.space > math.MaxUint64/alpha {
			return classKey{}, false
		}
		k.cols[j], k.stride[j] = cc, k.space
		k.space *= alpha
	}
	return k, true
}

// partition assigns every view row its class: dense ids in first-seen row
// order, through a direct-index table while the key space is small and a map
// past that, kept as relation.Codes (a byte a row while the ids fit one).
// first[c] is class c's first row, so len(first) is the class count. It gives
// up (nil) once the classes outnumber half the rows — the table lookups would
// cost what they save.
func (k classKey) partition(inS []bool) (classOf *relation.Codes, first []uint32) {
	n := len(inS)
	var direct []uint32 // class id + 1 by key
	var sparse map[uint64]uint32
	if k.space <= uint64(max(1<<16, 4*n)) {
		direct = make([]uint32, k.space)
	} else {
		sparse = make(map[uint64]uint32)
	}
	classOf = new(relation.Codes)
	*classOf = classOf.Grow(n)
	for i, s := range inS {
		key := uint64(0)
		if s {
			key = 1
		}
		for j, cc := range k.cols {
			key += uint64(cc.At(i)) * k.stride[j]
		}
		var id uint32
		if direct != nil {
			id = direct[key]
		} else {
			id = sparse[key]
		}
		if id == 0 {
			if len(first) >= n/2 {
				return nil, nil
			}
			first = append(first, uint32(i))
			id = uint32(len(first))
			if direct != nil {
				direct[key] = id
			} else {
				sparse[key] = id
			}
		}
		classOf.Set(i, id-1)
	}
	return classOf, first
}

// shardLayout is how one plan shard's rows reference the tuple classes, a
// function of the partition alone, so a Prepared builds it once a shard
// (evaluator.layout): refs lists the classes the rows reference, in the
// order of first reference; where every view row is a block of its own and
// codes pay (rowValues), codes holds each row's index into refs, width bytes
// little-endian. width is 0 where the rows go as their own values, or their
// blocks span rows.
type shardLayout struct {
	once  sync.Once
	refs  []uint32
	codes []byte
	width int
}

// build lays out rows [lo, hi) of classOf, a partition into classes classes;
// own reports whether every view row is a block of its own. Codes are a byte
// a row up to 256 classes referenced, two up to 65,536, and pay when they
// and 16 B a class come to fewer bytes than 16 a row.
func (l *shardLayout) build(classOf *relation.Codes, classes, lo, hi int, own bool) {
	code := make([]int32, classes) // each class's index in refs, plus one
	for i := lo; i < hi; i++ {
		if c := classOf.At(i); code[c] == 0 {
			l.refs = append(l.refs, c)
			code[c] = int32(len(l.refs))
		}
	}
	n, width := hi-lo, 1
	if len(l.refs) > 1<<8 {
		width = 2
	}
	if !own || len(l.refs) > 1<<16 || 16*len(l.refs)+width*n >= 16*n {
		return
	}
	l.width, l.codes = width, make([]byte, width*n)
	for i := lo; i < hi; i++ {
		if k := code[classOf.At(i)] - 1; width == 1 {
			l.codes[i-lo] = byte(k)
		} else {
			binary.LittleEndian.PutUint16(l.codes[2*(i-lo):], uint16(k))
		}
	}
}

// classVal is tuple()'s (sum, count) for one class.
type classVal struct {
	sum, cnt float64
}

// labeler yields the training labels of one post-event conjunction: eval runs
// the label expressions on a view row; label answers from the row's class
// after the class's first row. One labeler serves one single-flight fit, on
// that fit's goroutine, so its tables need no lock.
type labeler struct {
	eval    func(viewRow int) (float64, error)
	classOf *relation.Codes // nil: every row evaluates
	classes int
	byClass []float64 // each class's label, allocated by the first label: most labelers never fit
	seen    []bool    // whether byClass holds the class's label
	evals   int       // eval calls made
}

func (l *labeler) label(viewRow int) (float64, error) {
	c := -1 // the per-row path: no class to remember
	if l.classOf != nil {
		if l.byClass == nil {
			l.byClass, l.seen = make([]float64, l.classes), make([]bool, l.classes)
		}
		if c = int(l.classOf.At(viewRow)); l.seen[c] {
			return l.byClass[c], nil
		}
	}
	y, err := l.eval(viewRow)
	if err != nil {
		return 0, err
	}
	l.evals++
	if c >= 0 {
		l.byClass[c], l.seen[c] = y, true
	}
	return y, nil
}
