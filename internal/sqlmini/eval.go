// Package sqlmini evaluates the SQL fragment HypeR embeds in the USE
// operator (Section 3.1): SELECT with column and aggregate projections, FROM
// with multiple tables, WHERE with equi-joins and filters, and GROUP BY. The
// one executor (RunSelect) keeps joined rows as tuples of base-row indexes
// and joins and groups on the relations' shared column codes, never on
// formatted key strings. It also provides the general expression evaluator
// used by the engine for WHEN and FOR predicates with PRE()/POST()
// environments.
package sqlmini

import (
	"fmt"

	"hyper/internal/hyperql"
	"hyper/internal/relation"
)

// Env supplies values for column references during expression evaluation.
type Env interface {
	// Lookup resolves a (possibly table-qualified) column at the given
	// temporal marker. Implementations decide what TimeDefault means.
	Lookup(table, name string, time hyperql.Temporal) (relation.Value, error)
}

// Eval evaluates an expression to a Value.
func Eval(e hyperql.Expr, env Env) (relation.Value, error) {
	switch x := e.(type) {
	case *hyperql.Literal:
		return x.Val, nil
	case *hyperql.ColRef:
		return env.Lookup(x.Table, x.Name, x.Time)
	case *hyperql.Unary:
		v, err := Eval(x.X, env)
		if err != nil {
			return relation.Null, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return relation.Null, nil
			}
			return relation.Bool(!truthy(v)), nil
		case "-":
			if !v.Kind().Numeric() {
				return relation.Null, nil
			}
			if v.Kind() == relation.KindInt {
				return relation.Int(-v.AsInt()), nil
			}
			return relation.Float(-v.AsFloat()), nil
		}
		return relation.Null, fmt.Errorf("sqlmini: unknown unary operator %q", x.Op)
	case *hyperql.Binary:
		return evalBinary(x, env)
	case *hyperql.InList:
		v, err := Eval(x.X, env)
		if err != nil {
			return relation.Null, err
		}
		found := false
		for _, ve := range x.Vals {
			c, err := Eval(ve, env)
			if err != nil {
				return relation.Null, err
			}
			if v.Equal(c) {
				found = true
				break
			}
		}
		return relation.Bool(found != x.Neg), nil
	case *hyperql.Aggregate:
		return relation.Null, fmt.Errorf("sqlmini: aggregate %s not allowed in scalar context", x)
	default:
		return relation.Null, fmt.Errorf("sqlmini: cannot evaluate %T", e)
	}
}

func evalBinary(x *hyperql.Binary, env Env) (relation.Value, error) {
	switch x.Op {
	case "AND":
		l, err := EvalBool(x.L, env)
		if err != nil {
			return relation.Null, err
		}
		if !l {
			return relation.Bool(false), nil
		}
		r, err := EvalBool(x.R, env)
		if err != nil {
			return relation.Null, err
		}
		return relation.Bool(r), nil
	case "OR":
		l, err := EvalBool(x.L, env)
		if err != nil {
			return relation.Null, err
		}
		if l {
			return relation.Bool(true), nil
		}
		r, err := EvalBool(x.R, env)
		if err != nil {
			return relation.Null, err
		}
		return relation.Bool(r), nil
	}
	l, err := Eval(x.L, env)
	if err != nil {
		return relation.Null, err
	}
	r, err := Eval(x.R, env)
	if err != nil {
		return relation.Null, err
	}
	switch x.Op {
	case "+":
		return l.Add(r), nil
	case "-":
		return l.Sub(r), nil
	case "*":
		return l.Mul(r), nil
	case "/":
		return l.Div(r), nil
	}
	if l.IsNull() || r.IsNull() {
		// SQL three-valued logic collapsed to false for comparisons on NULL.
		return relation.Bool(false), nil
	}
	c := l.Compare(r)
	switch x.Op {
	case "=":
		return relation.Bool(c == 0), nil
	case "!=":
		return relation.Bool(c != 0), nil
	case "<":
		return relation.Bool(c < 0), nil
	case "<=":
		return relation.Bool(c <= 0), nil
	case ">":
		return relation.Bool(c > 0), nil
	case ">=":
		return relation.Bool(c >= 0), nil
	}
	return relation.Null, fmt.Errorf("sqlmini: unknown operator %q", x.Op)
}

// EvalBool evaluates e and coerces to a boolean (NULL is false).
func EvalBool(e hyperql.Expr, env Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

func truthy(v relation.Value) bool {
	switch v.Kind() {
	case relation.KindBool:
		return v.AsBool()
	case relation.KindInt, relation.KindFloat:
		return v.AsFloat() != 0
	case relation.KindString:
		return v.AsString() != ""
	default:
		return false
	}
}

// RowEnv is an Env over one row of a relation; TimeDefault and TimePre and
// TimePost all read the same row (no update context).
type RowEnv struct {
	Rel *relation.Relation
	Row int
}

// Lookup implements Env.
func (r RowEnv) Lookup(table, name string, _ hyperql.Temporal) (relation.Value, error) {
	if table != "" && table != r.Rel.Name() {
		return relation.Null, fmt.Errorf("sqlmini: unknown table %q", table)
	}
	i, ok := r.Rel.Schema().Index(name)
	if !ok {
		return relation.Null, fmt.Errorf("sqlmini: unknown column %q in %s", name, r.Rel.Name())
	}
	return r.Rel.Value(r.Row, i), nil
}
