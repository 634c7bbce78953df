package sqlmini

// The select executor as it stood before joins ran on codes over row-index
// tuples, kept as the oracle: joined rows are copied []Value rows, join and
// group keys are Key()+"|" concatenations in string-keyed maps (which is the
// one place it is known to be wrong: see TestCompositeKeysDoNotCollide). It
// shares SplitAnd and the expression evaluator with the executor under test
// and nothing else.

import (
	"fmt"
	"strings"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

func refRunSelect(db *relation.Database, sel *hyperql.SelectStmt, name string) (*relation.Relation, error) {
	j, err := newRefJoiner(db, sel)
	if err != nil {
		return nil, err
	}
	rows, err := j.run()
	if err != nil {
		return nil, err
	}
	if len(sel.GroupBy) == 0 {
		return j.project(rows, name)
	}
	return j.groupProject(rows, name)
}

// refJoiner holds the combined schema of all FROM tables.
type refJoiner struct {
	db      *relation.Database
	sel     *hyperql.SelectStmt
	tables  []*relation.Relation // in FROM order
	aliases []string
	offsets []int // column offset of each table in the combined row
	width   int
}

func newRefJoiner(db *relation.Database, sel *hyperql.SelectStmt) (*refJoiner, error) {
	j := &refJoiner{db: db, sel: sel}
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
		j.offsets = append(j.offsets, j.width)
		j.width += r.Schema().Len()
	}
	return j, nil
}

// resolve maps a column reference to its combined-row offset.
func (j *refJoiner) resolve(table, name string) (int, error) {
	if table != "" {
		for ti, a := range j.aliases {
			if a == table || j.tables[ti].Name() == table {
				ci, ok := j.tables[ti].Schema().Index(name)
				if !ok {
					return -1, fmt.Errorf("sqlmini: table %q has no column %q", table, name)
				}
				return j.offsets[ti] + ci, nil
			}
		}
		return -1, fmt.Errorf("sqlmini: unknown table %q", table)
	}
	found := -1
	for ti, r := range j.tables {
		if ci, ok := r.Schema().Index(name); ok {
			if found >= 0 {
				return -1, fmt.Errorf("sqlmini: column %q is ambiguous", name)
			}
			found = j.offsets[ti] + ci
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("sqlmini: unknown column %q", name)
	}
	return found, nil
}

// sourceCol returns the schema column for a combined-row offset.
func (j *refJoiner) sourceCol(off int) relation.Column {
	for ti := len(j.tables) - 1; ti >= 0; ti-- {
		if off >= j.offsets[ti] {
			return j.tables[ti].Schema().Col(off - j.offsets[ti])
		}
	}
	panic("sqlmini: offset out of range")
}

// refJoinCond is one equi-join conjunct between two tables.
type refJoinCond struct {
	leftOff, rightOff int
	rightTable        int
}

// run executes the joins and the residual filter, returning combined rows.
func (j *refJoiner) run() ([][]relation.Value, error) {
	conjuncts := SplitAnd(j.sel.Where)
	var residual []hyperql.Expr
	// joinsFor[t] holds equi-join conditions usable when table t joins in.
	joinsFor := make([][]refJoinCond, len(j.tables))
	for _, c := range conjuncts {
		if jc, ok := j.asJoinCond(c); ok {
			joinsFor[jc.rightTable] = append(joinsFor[jc.rightTable], jc)
			continue
		}
		residual = append(residual, c)
	}

	// Left-deep pipeline: start with table 0, hash-join each next table.
	cur := make([][]relation.Value, 0, j.tables[0].Len())
	for _, row := range rowsOf(j.tables[0]) {
		combined := make([]relation.Value, j.width)
		copy(combined[j.offsets[0]:], row)
		cur = append(cur, combined)
	}
	for t := 1; t < len(j.tables); t++ {
		conds := joinsFor[t]
		next := make([][]relation.Value, 0, len(cur))
		rt := j.tables[t]
		rtRows := rowsOf(rt)
		if len(conds) == 0 {
			// Cross product (rare; guarded by size).
			if len(cur)*rt.Len() > 5_000_000 {
				return nil, fmt.Errorf("sqlmini: refusing cross product of %d x %d rows; add a join condition", len(cur), rt.Len())
			}
			for _, c := range cur {
				for _, row := range rtRows {
					nc := append([]relation.Value(nil), c...)
					copy(nc[j.offsets[t]:], row)
					next = append(next, nc)
				}
			}
			cur = next
			continue
		}
		// Build hash on the new table keyed by its join columns.
		hash := make(map[string][]int, rt.Len())
		for ri, row := range rtRows {
			var kb strings.Builder
			for _, c := range conds {
				kb.WriteString(row[c.rightOff-j.offsets[t]].Key())
				kb.WriteByte('|')
			}
			k := kb.String()
			hash[k] = append(hash[k], ri)
		}
		for _, c := range cur {
			var kb strings.Builder
			for _, cond := range conds {
				kb.WriteString(c[cond.leftOff].Key())
				kb.WriteByte('|')
			}
			for _, ri := range hash[kb.String()] {
				nc := append([]relation.Value(nil), c...)
				copy(nc[j.offsets[t]:], rtRows[ri])
				next = append(next, nc)
			}
		}
		cur = next
	}

	if len(residual) == 0 {
		return cur, nil
	}
	out := cur[:0]
	for _, row := range cur {
		env := refCombinedEnv{j: j, row: row}
		keep := true
		for _, c := range residual {
			ok, err := EvalBool(c, env)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
}

// asJoinCond recognizes "a.x = b.y" conjuncts whose sides live in different
// tables, returning a refJoinCond oriented so rightTable is the later table.
func (j *refJoiner) asJoinCond(e hyperql.Expr) (refJoinCond, bool) {
	b, ok := e.(*hyperql.Binary)
	if !ok || b.Op != "=" {
		return refJoinCond{}, false
	}
	lc, ok1 := b.L.(*hyperql.ColRef)
	rc, ok2 := b.R.(*hyperql.ColRef)
	if !ok1 || !ok2 {
		return refJoinCond{}, false
	}
	lo, err1 := j.resolve(lc.Table, lc.Name)
	ro, err2 := j.resolve(rc.Table, rc.Name)
	if err1 != nil || err2 != nil {
		return refJoinCond{}, false
	}
	lt, rt := j.tableOf(lo), j.tableOf(ro)
	if lt == rt {
		return refJoinCond{}, false
	}
	if lt > rt {
		lo, ro = ro, lo
		lt, rt = rt, lt
	}
	return refJoinCond{leftOff: lo, rightOff: ro, rightTable: rt}, true
}

func (j *refJoiner) tableOf(off int) int {
	for ti := len(j.tables) - 1; ti >= 0; ti-- {
		if off >= j.offsets[ti] {
			return ti
		}
	}
	return 0
}

type refCombinedEnv struct {
	j   *refJoiner
	row []relation.Value
}

func (e refCombinedEnv) Lookup(table, name string, _ hyperql.Temporal) (relation.Value, error) {
	off, err := e.j.resolve(table, name)
	if err != nil {
		return relation.Null, err
	}
	return e.row[off], nil
}

// project materializes a non-grouped select (columns only).
func (j *refJoiner) project(rows [][]relation.Value, name string) (*relation.Relation, error) {
	var cols []relation.Column
	var offs []int
	for _, item := range j.sel.Items {
		c, ok := item.Expr.(*hyperql.ColRef)
		if !ok {
			return nil, fmt.Errorf("sqlmini: aggregate select item %s requires GROUP BY", item.Expr)
		}
		off, err := j.resolve(c.Table, c.Name)
		if err != nil {
			return nil, err
		}
		src := j.sourceCol(off)
		cn := item.Alias
		if cn == "" {
			cn = c.Name
		}
		cols = append(cols, relation.Column{Name: cn, Kind: src.Kind, Key: src.Key, Mutable: src.Mutable})
		offs = append(offs, off)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := relation.NewRelation(name, schema)
	for _, row := range rows {
		t := make(relation.Tuple, len(offs))
		for i, off := range offs {
			t[i] = row[off]
		}
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// groupProject materializes a grouped select with aggregates.
func (j *refJoiner) groupProject(rows [][]relation.Value, name string) (*relation.Relation, error) {
	groupOffs := make([]int, len(j.sel.GroupBy))
	for i, g := range j.sel.GroupBy {
		off, err := j.resolve(g.Table, g.Name)
		if err != nil {
			return nil, err
		}
		groupOffs[i] = off
	}
	// Classify select items: each must be a group-by column or an aggregate.
	type itemPlan struct {
		isAgg    bool
		groupPos int                // for columns: index into groupOffs
		agg      *hyperql.Aggregate // for aggregates
		argOff   int                // combined offset of aggregate argument (-1 for *)
		name     string
		col      relation.Column
	}
	var plans []itemPlan
	for _, item := range j.sel.Items {
		switch x := item.Expr.(type) {
		case *hyperql.ColRef:
			off, err := j.resolve(x.Table, x.Name)
			if err != nil {
				return nil, err
			}
			gp := -1
			for i, g := range groupOffs {
				if g == off {
					gp = i
				}
			}
			if gp < 0 {
				return nil, fmt.Errorf("sqlmini: column %s must appear in GROUP BY or an aggregate", x)
			}
			cn := item.Alias
			if cn == "" {
				cn = x.Name
			}
			src := j.sourceCol(off)
			plans = append(plans, itemPlan{groupPos: gp, name: cn,
				col: relation.Column{Name: cn, Kind: src.Kind, Key: src.Key, Mutable: src.Mutable}})
		case *hyperql.Aggregate:
			if !x.Func.Valid() {
				return nil, fmt.Errorf("sqlmini: unsupported aggregate %q", x.Func)
			}
			argOff := -1
			if x.Expr != nil {
				c, ok := x.Expr.(*hyperql.ColRef)
				if !ok {
					return nil, fmt.Errorf("sqlmini: aggregate argument must be a column, got %s", x.Expr)
				}
				off, err := j.resolve(c.Table, c.Name)
				if err != nil {
					return nil, err
				}
				argOff = off
			}
			cn := item.Alias
			if cn == "" {
				cn = strings.ToLower(string(x.Func))
			}
			kind := relation.KindFloat
			if x.Func == hyperql.AggCount {
				kind = relation.KindInt
			}
			plans = append(plans, itemPlan{isAgg: true, agg: x, argOff: argOff, name: cn,
				col: relation.Column{Name: cn, Kind: kind, Mutable: true}})
		default:
			return nil, fmt.Errorf("sqlmini: unsupported select item %s", item.Expr)
		}
	}
	var cols []relation.Column
	for _, p := range plans {
		cols = append(cols, p.col)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := relation.NewRelation(name, schema)

	// Group rows.
	type group struct {
		key    []relation.Value
		sums   []float64
		counts []int
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range rows {
		var kb strings.Builder
		for _, off := range groupOffs {
			kb.WriteString(row[off].Key())
			kb.WriteByte('|')
		}
		k := kb.String()
		g := groups[k]
		if g == nil {
			key := make([]relation.Value, len(groupOffs))
			for i, off := range groupOffs {
				key[i] = row[off]
			}
			g = &group{key: key, sums: make([]float64, len(plans)), counts: make([]int, len(plans))}
			groups[k] = g
			order = append(order, k)
		}
		for pi, p := range plans {
			if !p.isAgg {
				continue
			}
			if p.argOff < 0 {
				g.counts[pi]++
				continue
			}
			v := row[p.argOff]
			if v.IsNull() {
				continue
			}
			g.sums[pi] += v.AsFloat()
			g.counts[pi]++
		}
	}
	for _, k := range order {
		g := groups[k]
		t := make(relation.Tuple, len(plans))
		for pi, p := range plans {
			if !p.isAgg {
				t[pi] = g.key[p.groupPos]
				continue
			}
			switch p.agg.Func {
			case hyperql.AggCount:
				t[pi] = relation.Int(int64(g.counts[pi]))
			case hyperql.AggSum:
				t[pi] = relation.Float(g.sums[pi])
			case hyperql.AggAvg:
				if g.counts[pi] == 0 {
					t[pi] = relation.Null
				} else {
					t[pi] = relation.Float(g.sums[pi] / float64(g.counts[pi]))
				}
			}
		}
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rowsOf materialises every row of r.
func rowsOf(r *relation.Relation) []relation.Tuple {
	out := make([]relation.Tuple, r.Len())
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}
