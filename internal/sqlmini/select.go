package sqlmini

import (
	"fmt"
	"math"
	"strings"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// View is a materialized select and its provenance: where each of its
// columns and rows came from. It is what maps the relevant view of a USE
// clause back to the base attributes and base tuples the causal model, the
// updates and the block decomposition are stated over (Sections 3.1-3.2).
type View struct {
	Rel    *relation.Relation
	Tables []*relation.Relation // the FROM tables, in FROM order
	// Cols[c] is the source of view column c: the FROM table and column a
	// plain column reads, or an aggregate's argument.
	Cols []Source
	// Rows[t][i] is the row of Tables[t] behind view row i — for a grouped
	// select, the first joined row of its group. It is nil for a table no
	// plain column reads, and for the one table of a view that is the table
	// itself (TableView), whose row i is view row i.
	Rows [][]int32
}

// Source is where a view column came from: column Col of FROM table Table.
// Agg marks an aggregate of that column; COUNT(*) has Table -1.
type Source struct {
	Table, Col int
	Agg        bool
}

// TableView is the view of a bare table: the table itself, each column its
// own source.
func TableView(r *relation.Relation) *View {
	cols := make([]Source, r.Schema().Len())
	for c := range cols {
		cols[c] = Source{Col: c}
	}
	return &View{Rel: r, Tables: []*relation.Relation{r}, Cols: cols, Rows: make([][]int32, 1)}
}

// RunSelect is Select's relation alone.
func RunSelect(db *relation.Database, sel *hyperql.SelectStmt, name string) (*relation.Relation, error) {
	v, err := Select(db, sel, name)
	if err != nil {
		return nil, err
	}
	return v.Rel, nil
}

// Select evaluates a USE sub-select against db and materializes the
// relevant view as a relation named name, with its provenance.
//
// A joined row is never built: it is a tuple of base-row indexes, one per
// FROM table, and every later step reads the base rows through it. Joins run
// left-deep over the equality conjuncts of WHERE, on the tables' shared
// column codes (relation.Relation.Coded): the right column's dictionary is
// translated into the left column's code space once per distinct value, the
// right rows are bucketed per key in right-row order, and each left tuple
// probes by code. Codes intern under relation.Value's canonical-key
// identity, so NULL joins NULL and Int 3 joins Float 3.0, as keys formatted
// per row did. Joined rows come out in left order, then right-row order; the
// residual predicate filters them in that order; GROUP BY forms groups in
// first-seen order and every aggregate adds its rows in that order, so SUM
// and AVG are summed in one fixed order whatever the key representation.
func Select(db *relation.Database, sel *hyperql.SelectStmt, name string) (*View, error) {
	j, err := newJoiner(db, sel)
	if err != nil {
		return nil, err
	}
	if err := j.run(); err != nil {
		return nil, err
	}
	if len(sel.GroupBy) == 0 {
		return j.project(name)
	}
	return j.groupProject(name)
}

// joiner executes one select over its FROM tables.
type joiner struct {
	sel     *hyperql.SelectStmt
	tables  []*relation.Relation // in FROM order
	aliases []string
	// rows holds the joined rows back to back, len(tables) base-row indexes
	// each (set by run).
	rows []int32
}

// colRef is a resolved column reference: a FROM table and a column of it.
type colRef struct{ table, col int }

func newJoiner(db *relation.Database, sel *hyperql.SelectStmt) (*joiner, error) {
	j := &joiner{sel: sel}
	for _, tr := range sel.From {
		r := db.Relation(tr.Name)
		if r == nil {
			return nil, &hyperql.SemanticError{Pos: tr.Pos, Msg: fmt.Sprintf("unknown table %q", tr.Name)}
		}
		alias := tr.Alias
		if alias == "" {
			alias = tr.Name
		}
		for _, a := range j.aliases {
			if a == alias {
				return nil, fmt.Errorf("sqlmini: duplicate table alias %q", alias)
			}
		}
		j.tables = append(j.tables, r)
		j.aliases = append(j.aliases, alias)
	}
	return j, nil
}

// resolve maps a column reference to its table and column.
func (j *joiner) resolve(table, name string) (colRef, error) {
	if table != "" {
		for ti, a := range j.aliases {
			if a == table || j.tables[ti].Name() == table {
				ci, ok := j.tables[ti].Schema().Index(name)
				if !ok {
					return colRef{}, fmt.Errorf("sqlmini: table %q has no column %q", table, name)
				}
				return colRef{ti, ci}, nil
			}
		}
		return colRef{}, fmt.Errorf("sqlmini: unknown table %q", table)
	}
	found := false
	var ref colRef
	for ti, r := range j.tables {
		if ci, ok := r.Schema().Index(name); ok {
			if found {
				return colRef{}, fmt.Errorf("sqlmini: column %q is ambiguous", name)
			}
			found, ref = true, colRef{ti, ci}
		}
	}
	if !found {
		return colRef{}, fmt.Errorf("sqlmini: unknown column %q", name)
	}
	return ref, nil
}

// value reads column c of a joined row.
func (j *joiner) value(tuple []int32, c colRef) relation.Value {
	return j.tables[c.table].Value(int(tuple[c.table]), c.col)
}

// outputCol is the view column a projected source column becomes.
func (j *joiner) outputCol(c colRef, name string) relation.Column {
	src := j.tables[c.table].Schema().Col(c.col)
	return relation.Column{Name: name, Kind: src.Kind, Key: src.Key, Mutable: src.Mutable}
}

// joinCond is one equi-join conjunct, oriented so right is in the later table.
type joinCond struct{ left, right colRef }

// run executes the joins and the residual filter, leaving the joined rows in
// j.rows.
func (j *joiner) run() error {
	nt := len(j.tables)
	var residual []hyperql.Expr
	// joinsFor[t] holds equi-join conditions usable when table t joins in.
	joinsFor := make([][]joinCond, nt)
	for _, c := range SplitAnd(j.sel.Where) {
		if jc, ok := j.asJoinCond(c); ok {
			joinsFor[jc.right.table] = append(joinsFor[jc.right.table], jc)
			continue
		}
		residual = append(residual, c)
	}

	// Left-deep pipeline: start with table 0, join each next table.
	cur := make([]int32, j.tables[0].Len()*nt)
	for i := 0; i*nt < len(cur); i++ {
		cur[i*nt] = int32(i)
	}
	for t := 1; t < nt; t++ {
		if conds := joinsFor[t]; len(conds) > 0 {
			cur = j.equiJoin(cur, t, conds)
			continue
		}
		// Cross product (rare; guarded by size).
		n := j.tables[t].Len()
		if len(cur)/nt*n > 5_000_000 {
			return fmt.Errorf("sqlmini: refusing cross product of %d x %d rows; add a join condition", len(cur)/nt, n)
		}
		next := make([]int32, 0, len(cur)*n)
		for k := 0; k < len(cur); k += nt {
			for ri := 0; ri < n; ri++ {
				next = append(next, cur[k:k+nt]...)
				next[len(next)-nt+t] = int32(ri)
			}
		}
		cur = next
	}

	if len(residual) > 0 {
		env := &tupleEnv{j: j, refs: make(map[[2]string]resolved)}
		out := cur[:0]
	rows:
		for k := 0; k < len(cur); k += nt {
			env.tuple = cur[k : k+nt]
			for _, c := range residual {
				ok, err := EvalBool(c, env)
				if err != nil {
					return err
				}
				if !ok {
					continue rows
				}
			}
			out = append(out, env.tuple...)
		}
		cur = out
	}
	j.rows = cur
	return nil
}

// equiJoin joins table t to the tuples in cur on conds and returns the
// matches: for each tuple of cur in order, the matching rows of t in row
// order.
func (j *joiner) equiJoin(cur []int32, t int, conds []joinCond) []int32 {
	nt, rt := len(j.tables), j.tables[t]
	// Per conjunct: both columns' codes, and the right column's code -> the
	// left column's code for the same value (-1: the left column lacks it).
	left := make([]*relation.CodedColumn, len(conds))
	right := make([]*relation.CodedColumn, len(conds))
	toLeft := make([][]int32, len(conds))
	alphabet := make([]int, len(conds))
	for k, c := range conds {
		left[k] = j.tables[c.left.table].Coded(c.left.col)
		right[k] = rt.Coded(c.right.col)
		toLeft[k] = right[k].Recode(left[k])
		alphabet[k] = len(left[k].Values)
	}

	// Bucket the right rows by key, each bucket in row order (a counting
	// sort over the ids of the distinct keys).
	keys := relation.NewTupleIndex(alphabet, rt.Len())
	digits := make([]uint32, len(conds))
	ids := make([]int32, rt.Len())
	var fill []int32 // per key id: its row count, then its write cursor
build:
	for ri := range ids {
		ids[ri] = -1
		for k := range conds {
			lc := toLeft[k][right[k].At(ri)]
			if lc < 0 {
				continue build
			}
			digits[k] = uint32(lc)
		}
		id, _ := keys.ID(digits, true)
		if int(id) == len(fill) {
			fill = append(fill, 0)
		}
		fill[id]++
		ids[ri] = id
	}
	start := make([]int32, len(fill)+1)
	for id, n := range fill {
		start[id+1] = start[id] + n
		fill[id] = start[id]
	}
	byKey := make([]int32, start[len(fill)])
	for ri, id := range ids {
		if id >= 0 {
			byKey[fill[id]] = int32(ri)
			fill[id]++
		}
	}

	// Probe each left tuple once for its key id (-1: no match), counting the
	// output, then emit into a slice of exactly that size.
	probes := make([]int32, len(cur)/nt)
	matches := 0
	for p := range probes {
		tuple := cur[p*nt : (p+1)*nt]
		for c, cond := range conds {
			digits[c] = left[c].At(int(tuple[cond.left.table]))
		}
		id, ok := keys.ID(digits, false)
		if !ok {
			probes[p] = -1
			continue
		}
		probes[p] = id
		matches += int(start[id+1] - start[id])
	}
	next := make([]int32, 0, matches*nt)
	for p, id := range probes {
		if id < 0 {
			continue
		}
		tuple := cur[p*nt : (p+1)*nt]
		for _, ri := range byKey[start[id]:start[id+1]] {
			next = append(next, tuple...)
			next[len(next)-nt+t] = ri
		}
	}
	return next
}

// asJoinCond recognizes "a.x = b.y" conjuncts whose sides live in different
// tables, returning a joinCond oriented so right is in the later table.
func (j *joiner) asJoinCond(e hyperql.Expr) (joinCond, bool) {
	b, ok := e.(*hyperql.Binary)
	if !ok || b.Op != "=" {
		return joinCond{}, false
	}
	lc, ok1 := b.L.(*hyperql.ColRef)
	rc, ok2 := b.R.(*hyperql.ColRef)
	if !ok1 || !ok2 {
		return joinCond{}, false
	}
	l, err1 := j.resolve(lc.Table, lc.Name)
	r, err2 := j.resolve(rc.Table, rc.Name)
	if err1 != nil || err2 != nil || l.table == r.table {
		return joinCond{}, false
	}
	if l.table > r.table {
		l, r = r, l
	}
	return joinCond{left: l, right: r}, true
}

// tupleEnv is the Env of the residual predicate over one joined row. Each
// distinct column reference is resolved once per select, on the first row
// that evaluates it (so a reference no row reaches never raises its error).
type tupleEnv struct {
	j     *joiner
	tuple []int32
	refs  map[[2]string]resolved
}

type resolved struct {
	col colRef
	err error
}

func (e *tupleEnv) Lookup(table, name string, _ hyperql.Temporal) (relation.Value, error) {
	r, ok := e.refs[[2]string{table, name}]
	if !ok {
		r.col, r.err = e.j.resolve(table, name)
		e.refs[[2]string{table, name}] = r
	}
	if r.err != nil {
		return relation.Null, r.err
	}
	return e.j.value(e.tuple, r.col), nil
}

// project materializes a non-grouped select (columns only): each output
// column gathers its source column over the joined rows.
func (j *joiner) project(name string) (*View, error) {
	var cols []relation.Column
	var refs []colRef
	for _, item := range j.sel.Items {
		c, ok := item.Expr.(*hyperql.ColRef)
		if !ok {
			return nil, fmt.Errorf("sqlmini: aggregate select item %s requires GROUP BY", item.Expr)
		}
		ref, err := j.resolve(c.Table, c.Name)
		if err != nil {
			return nil, err
		}
		cn := item.Alias
		if cn == "" {
			cn = c.Name
		}
		cols = append(cols, j.outputCol(ref, cn))
		refs = append(refs, ref)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	every := make([]int, len(j.rows)/len(j.tables))
	for k := range every {
		every[k] = k * len(j.tables)
	}
	srcs := make([]Source, len(refs))
	for c, ref := range refs {
		srcs[c] = Source{Table: ref.table, Col: ref.col}
	}
	out, rows := j.gather(refs, every)
	return j.view(name, schema, out, srcs, rows)
}

// view wraps a select's output columns, their sources and its base rows.
func (j *joiner) view(name string, schema *relation.Schema, out []*relation.CodedColumn, srcs []Source, rows [][]int32) (*View, error) {
	rel, err := relation.FromColumns(name, schema, out)
	if err != nil {
		return nil, err
	}
	return &View{Rel: rel, Tables: j.tables, Cols: srcs, Rows: rows}, nil
}

// gather returns, per column reference, its column over the joined rows at
// the given offsets of j.rows: a relation.Gather over the rows its FROM table
// contributes to them. rowsOf holds those rows per FROM table, nil for a
// table no reference reads.
func (j *joiner) gather(refs []colRef, offsets []int) (out []*relation.CodedColumn, rowsOf [][]int32) {
	rowsOf = make([][]int32, len(j.tables))
	out = make([]*relation.CodedColumn, len(refs))
	for i, ref := range refs {
		rows := rowsOf[ref.table]
		if rows == nil {
			rows = make([]int32, len(offsets))
			for o, k := range offsets {
				rows[o] = j.rows[k+ref.table]
			}
			rowsOf[ref.table] = rows
		}
		out[i] = relation.Gather(j.tables[ref.table].Coded(ref.col), rows)
	}
	return out, rowsOf
}

// aggregate is one aggregate select item.
type aggregate struct {
	item int // its position among the select items
	fn   hyperql.AggFunc
	star bool   // over *
	arg  colRef // the argument column otherwise
	// When the argument column holds each code's value to the bit, a row's
	// addend is its code's: byCode holds each code's float and null the NULL
	// code (MaxUint32 when there is none).
	codes  *relation.CodedColumn
	byCode []float64
	null   uint32
}

// readByCode sets a up to read its argument through the column's codes when
// every row of the column is its code's value.
func (a *aggregate) readByCode(col *relation.CodedColumn) {
	if !col.Exact {
		return
	}
	a.codes, a.byCode, a.null = col, make([]float64, len(col.Values)), math.MaxUint32
	for code, v := range col.Values {
		a.byCode[code] = v.AsFloat()
	}
	if code, ok := col.Code(relation.Null); ok {
		a.null = code
	}
}

// groupProject materializes a grouped select with aggregates: a grouped
// column gathers its source column over each group's first joined row, and
// an aggregate column is built from the per-group values.
func (j *joiner) groupProject(name string) (*View, error) {
	groupRefs := make([]colRef, len(j.sel.GroupBy))
	for i, g := range j.sel.GroupBy {
		ref, err := j.resolve(g.Table, g.Name)
		if err != nil {
			return nil, err
		}
		groupRefs[i] = ref
	}
	// Classify select items: each must be a group-by column or an aggregate.
	cols := make([]relation.Column, len(j.sel.Items))
	srcs := make([]Source, len(j.sel.Items))
	var keyed []int        // the group-by column items ...
	var keyedRefs []colRef // ... and their columns
	var aggs []aggregate
	for i, item := range j.sel.Items {
		switch x := item.Expr.(type) {
		case *hyperql.ColRef:
			ref, err := j.resolve(x.Table, x.Name)
			if err != nil {
				return nil, err
			}
			grouped := false
			for _, g := range groupRefs {
				grouped = grouped || g == ref
			}
			if !grouped {
				return nil, fmt.Errorf("sqlmini: column %s must appear in GROUP BY or an aggregate", x)
			}
			cn := item.Alias
			if cn == "" {
				cn = x.Name
			}
			cols[i] = j.outputCol(ref, cn)
			srcs[i] = Source{Table: ref.table, Col: ref.col}
			keyed, keyedRefs = append(keyed, i), append(keyedRefs, ref)
		case *hyperql.Aggregate:
			if !x.Func.Valid() {
				return nil, fmt.Errorf("sqlmini: unsupported aggregate %q", x.Func)
			}
			a := aggregate{item: i, fn: x.Func, star: x.Expr == nil}
			srcs[i] = Source{Table: -1, Agg: true}
			if x.Expr != nil {
				c, ok := x.Expr.(*hyperql.ColRef)
				if !ok {
					return nil, fmt.Errorf("sqlmini: aggregate argument must be a column, got %s", x.Expr)
				}
				ref, err := j.resolve(c.Table, c.Name)
				if err != nil {
					return nil, err
				}
				a.arg = ref
				srcs[i] = Source{Table: ref.table, Col: ref.col, Agg: true}
				a.readByCode(j.tables[ref.table].Coded(ref.col))
			}
			cn := item.Alias
			if cn == "" {
				cn = strings.ToLower(string(x.Func))
			}
			kind := relation.KindFloat
			if x.Func == hyperql.AggCount {
				kind = relation.KindInt
			}
			cols[i] = relation.Column{Name: cn, Kind: kind, Mutable: true}
			aggs = append(aggs, a)
		default:
			return nil, fmt.Errorf("sqlmini: unsupported select item %s", item.Expr)
		}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}

	// Group the joined rows: per row a tuple of digits, one per group source.
	sources := j.groupSources(groupRefs)
	alphabet := make([]int, len(sources))
	for d, s := range sources {
		alphabet[d] = j.tables[s.table].Len()
		if s.codes != nil {
			alphabet[d] = len(s.codes.Values)
		}
	}
	nt, na := len(j.tables), len(aggs)
	groups := relation.NewTupleIndex(alphabet, len(j.rows)/nt)
	digits := make([]uint32, len(sources))
	var first []int    // per group: offset in j.rows of its first joined row
	var sums []float64 // per group, per aggregate
	var counts []int
	for k := 0; k < len(j.rows); k += nt {
		tuple := j.rows[k : k+nt]
		for d, s := range sources {
			digits[d] = uint32(tuple[s.table])
			if s.codes != nil {
				digits[d] = s.codes.At(int(tuple[s.table]))
			}
		}
		id, _ := groups.ID(digits, true)
		g := int(id)
		if g == len(first) {
			first = append(first, k)
			for range na {
				sums, counts = append(sums, 0), append(counts, 0)
			}
		}
		for a := range aggs {
			x, at := &aggs[a], g*na+a
			switch {
			case x.star:
				counts[at]++
			case x.codes != nil:
				if code := x.codes.At(int(tuple[x.arg.table])); code != x.null {
					sums[at] += x.byCode[code]
					counts[at]++
				}
			default:
				if v := j.value(tuple, x.arg); !v.IsNull() {
					sums[at] += v.AsFloat()
					counts[at]++
				}
			}
		}
	}
	out := make([]*relation.CodedColumn, len(cols))
	keyedCols, rows := j.gather(keyedRefs, first)
	for i, c := range keyedCols {
		out[keyed[i]] = c
	}
	vals := make([]relation.Value, len(first))
	for a, x := range aggs {
		for g := range first {
			sum, n := sums[g*na+a], counts[g*na+a]
			switch {
			case x.fn == hyperql.AggCount:
				vals[g] = relation.Int(int64(n))
			case x.fn == hyperql.AggSum:
				vals[g] = relation.Float(sum)
			case n == 0: // AVG over no non-NULL value
				vals[g] = relation.Null
			default:
				vals[g] = relation.Float(sum / float64(n))
			}
		}
		out[x.item] = relation.ColumnOf(vals)
	}
	return j.view(name, schema, out, srcs, rows)
}

// groupSource is one digit of a group key: a column's code, or — codes nil —
// the row index of a table whose whole primary key is grouped on.
type groupSource struct {
	table int
	codes *relation.CodedColumn
}

// groupSources turns the GROUP BY columns into digit sources. A table whose
// declared primary key is entirely among them contributes its row index as
// one digit and none of its columns is coded: primary keys are unique within
// a relation, so the row determines, and is determined by, that table's
// part of the group key (the USE contract of Section 3.1 — group on the key
// of the entity the view has one row for). Every other column contributes
// its code.
func (j *joiner) groupSources(groupRefs []colRef) []groupSource {
	covered := make([]bool, len(j.tables))
	for ti, r := range j.tables {
		keys := r.Schema().KeyIndexes()
		covered[ti] = len(keys) > 0
		for _, ci := range keys {
			grouped := false
			for _, g := range groupRefs {
				grouped = grouped || g == colRef{ti, ci}
			}
			covered[ti] = covered[ti] && grouped
		}
	}
	var sources []groupSource
	byRow := make([]bool, len(j.tables))
	for _, g := range groupRefs {
		switch {
		case !covered[g.table]:
			sources = append(sources, groupSource{g.table, j.tables[g.table].Coded(g.col)})
		case !byRow[g.table]:
			byRow[g.table] = true
			sources = append(sources, groupSource{table: g.table})
		}
	}
	return sources
}

// SplitAnd flattens a conjunction into its conjuncts in left-to-right
// order, the order EvalBool short-circuits in.
func SplitAnd(e hyperql.Expr) []hyperql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*hyperql.Binary); ok && b.Op == "AND" {
		return append(SplitAnd(b.L), SplitAnd(b.R)...)
	}
	return []hyperql.Expr{e}
}
