package causal

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"hyper/internal/relation"
)

// ParseModel reads a causal-model description in the text format emitted by
// cmd/hypergen:
//
//	Rel.AttrA -> Rel.AttrB          # attribute-level causal edge
//	CROSS Rel.A -> Rel.B GROUP Rel.G # cross-tuple edge within GROUP values
//	FK Child.Col -> Parent.Col       # foreign key (returned separately)
//
// Blank lines and lines starting with '#' are ignored.
func ParseModel(r io.Reader) (*Model, []relation.ForeignKey, error) {
	m := NewModel()
	var fks []relation.ForeignKey
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "CROSS":
			// CROSS A -> B GROUP G
			if len(fields) != 6 || fields[2] != "->" || fields[4] != "GROUP" {
				return nil, nil, fmt.Errorf("causal: line %d: expected 'CROSS Rel.A -> Rel.B GROUP Rel.G'", lineNo)
			}
			fr, fa := SplitQualified(fields[1])
			tr, ta := SplitQualified(fields[3])
			if fr == "" || tr == "" {
				return nil, nil, fmt.Errorf("causal: line %d: CROSS endpoints must be qualified Rel.Attr", lineNo)
			}
			m.AddCross(CrossEdge{FromRel: fr, FromAttr: fa, ToRel: tr, ToAttr: ta, GroupBy: fields[5]})
		case fields[0] == "FK":
			if len(fields) != 4 || fields[2] != "->" {
				return nil, nil, fmt.Errorf("causal: line %d: expected 'FK Child.Col -> Parent.Col'", lineNo)
			}
			cr, cc := SplitQualified(fields[1])
			pr, pc := SplitQualified(fields[3])
			if cr == "" || pr == "" {
				return nil, nil, fmt.Errorf("causal: line %d: FK endpoints must be qualified Rel.Col", lineNo)
			}
			fks = append(fks, relation.ForeignKey{Child: cr, ChildCol: cc, Parent: pr, ParentCol: pc})
		default:
			if len(fields) != 3 || fields[1] != "->" {
				return nil, nil, fmt.Errorf("causal: line %d: expected 'A -> B'", lineNo)
			}
			m.AddEdge(fields[0], fields[2])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if _, err := m.Attr.TopoSort(); err != nil {
		return nil, nil, err
	}
	return m, fks, nil
}
