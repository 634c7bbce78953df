package causal

import (
	"fmt"
	"strings"

	"hyper/internal/relation"
)

// CrossEdge declares a cross-tuple causal dependency (the dashed edges of
// Figure 2/3 in the paper): attribute FromAttr of one tuple affects ToAttr
// of *other* tuples that share the same value of GroupBy. For example, the
// Price of one laptop affects the Rating of other laptops in the same
// Category.
type CrossEdge struct {
	FromRel  string
	FromAttr string
	ToRel    string
	ToAttr   string
	GroupBy  string // qualified or bare attribute whose equality links tuples
}

// Model is the attribute-level causal model attached to a database: a DAG
// over qualified attribute names, plus declared cross-tuple edges. It is the
// schema-level summary of the PRCM; the ground causal graph is derived from
// it together with a database instance.
type Model struct {
	Attr  *Graph      // DAG over "Rel.Attr" qualified names
	Cross []CrossEdge // cross-tuple dependencies
}

// NewModel returns an empty causal model.
func NewModel() *Model {
	return &Model{Attr: NewGraph()}
}

// Qualify joins a relation and attribute name.
func Qualify(rel, attr string) string { return rel + "." + attr }

// SplitQualified splits "Rel.Attr" into its parts; a bare name yields an
// empty relation.
func SplitQualified(q string) (rel, attr string) {
	if i := strings.IndexByte(q, '.'); i >= 0 {
		return q[:i], q[i+1:]
	}
	return "", q
}

// AddEdge adds an intra-tuple attribute dependency from -> to using
// qualified names.
func (m *Model) AddEdge(from, to string) { m.Attr.AddEdge(from, to) }

// AddCross declares a cross-tuple dependency. It also records the
// corresponding attribute-level edge so backdoor analysis sees it, except
// when source and target are the same attribute (a legitimate cross-tuple
// edge between distinct tuples that would be a self-loop at the attribute
// level; the engine captures it through ψ summary features instead).
func (m *Model) AddCross(e CrossEdge) {
	m.Cross = append(m.Cross, e)
	from, to := Qualify(e.FromRel, e.FromAttr), Qualify(e.ToRel, e.ToAttr)
	if from != to {
		m.Attr.AddEdge(from, to)
	} else {
		m.Attr.AddNode(from)
	}
}

// Validate checks the model against a database: every node must name an
// existing attribute and the graph must be acyclic.
func (m *Model) Validate(db *relation.Database) error {
	for _, n := range m.Attr.Nodes() {
		rel, attr := SplitQualified(n)
		r := db.Relation(rel)
		if r == nil {
			return fmt.Errorf("causal: model node %q references unknown relation %q", n, rel)
		}
		if !r.Schema().Has(attr) {
			return fmt.Errorf("causal: model node %q references unknown attribute %q of %q", n, attr, rel)
		}
	}
	if !m.Attr.IsAcyclic() {
		_, err := m.Attr.TopoSort()
		return err
	}
	return nil
}
