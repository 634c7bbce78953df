package engine_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hyper"
	"hyper/internal/dataset"
	"hyper/internal/dist"
)

// TestNameErrorsEveryWayIn: a name the relevant view lacks fails when the
// query is bound, before anything runs, with one error at the name's source
// offset — whether the query is evaluated, explained, asked as a how-to of
// the same shape or handed to the distribution coordinator. The fallback case
// is the WHEN tree the planner cannot validate: its OR once hid the unknown
// column on every row. An aggregate inside a per-row predicate fails alike.
func TestNameErrorsEveryWayIn(t *testing.T) {
	g := dataset.GermanSyn(500, 7)
	s := hyper.NewSession(g.DB, g.Model)
	s.SetOptions(hyper.Options{Seed: 7})
	coord := dist.NewCoordinator(dist.CoordinatorConfig{})
	for _, tc := range []struct {
		name, whatIf, howTo string
		bad, msg            string // the unresolved name and the error after its offset
	}{
		{"UPDATE", `USE German UPDATE(NoSuchColumn) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German HOWTOUPDATE NoSuchColumn TOMAXIMIZE COUNT(Credit = 1)`,
			"NoSuchColumn", `unknown column "NoSuchColumn" in German`},
		{"WHEN", `USE German WHEN Zip = 3 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German WHEN Zip = 3 HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`,
			"Zip", `unknown column "Zip" in German`},
		{"FOR", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Foo) = 1`,
			`USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1) FOR PRE(Foo) = 1`,
			"Foo", `unknown column "Foo" in German`},
		{"OUTPUT", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Nope = 1)`,
			`USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Nope = 1)`,
			"Nope", `unknown column "Nope" in German`},
		{"USE", `USE Nope UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE Nope HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`,
			"Nope", `unknown table "Nope"`},
		{"USE sub-select", `USE (SELECT Status, Credit FROM Nope) UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE (SELECT Status, Credit FROM Nope) HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`,
			"Nope", `unknown table "Nope"`},
		{"german-when-fallback", `USE German WHEN Age >= 0 OR Nope = 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German WHEN Age >= 0 OR Nope = 1 HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`,
			"Nope", `unknown column "Nope" in German`},
		// An aggregate is not a per-row predicate: WHEN, FOR and a COUNT
		// condition refuse one at its offset, as they refuse a name.
		{"WHEN aggregate", `USE German WHEN SUM(Age) > 3 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German WHEN SUM(Age) > 3 HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`,
			"SUM(Age)", `aggregate SUM(Age) not allowed in WHEN`},
		{"FOR aggregate", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR COUNT(*) > 0`,
			`USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1) FOR COUNT(*) > 0`,
			"COUNT(*)", `aggregate COUNT(*) not allowed in FOR`},
		{"COUNT condition aggregate", `USE German UPDATE(Status) = 3 OUTPUT COUNT(AVG(POST(Credit)) > 0)`,
			`USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(AVG(POST(Credit)) > 0)`,
			"AVG(", `aggregate AVG(POST(Credit)) not allowed in COUNT`},
		// The first bad node wins over a good column after it in the same
		// predicate.
		{"WHEN unknown, then a column", `USE German WHEN Nope = Age UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			`USE German WHEN Nope = Age HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`,
			"Nope", `unknown column "Nope" in German`},
		{"OUTPUT unknown, then a column", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Nope = Credit)`,
			`USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Nope = Credit)`,
			"Nope", `unknown column "Nope" in German`},
		{"OUTPUT PRE, then a column", `USE German UPDATE(Status) = 3 OUTPUT COUNT(PRE(Credit) = Age)`,
			`USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(PRE(Credit) = Age)`,
			"Credit", `PRE(Credit) is not allowed in OUTPUT, which reads post-update values`},
		{"FOR aggregate, then a column", `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR COUNT(*) > Age`,
			`USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1) FOR COUNT(*) > Age`,
			"COUNT(*)", `aggregate COUNT(*) not allowed in FOR`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := func(src string) string {
				return fmt.Sprintf("offset %d: %s", strings.Index(src, tc.bad), tc.msg)
			}
			check := func(way, src string, err error) {
				t.Helper()
				if err == nil || err.Error() != want(src) {
					t.Errorf("%s: err = %v, want %q", way, err, want(src))
				}
			}
			_, err := s.WhatIf(tc.whatIf)
			check("WhatIf", tc.whatIf, err)
			q, err := hyper.Parse(tc.whatIf)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Explain(context.Background(), q.(*hyper.WhatIfQuery))
			check("Explain", tc.whatIf, err)
			_, err = s.HowTo(tc.howTo)
			check("HowTo", tc.howTo, err)
			_, err = coord.EvaluateWhatIf(context.Background(), dist.EvalSpec{
				DB: s.DB(), Model: s.Model(), Frame: dist.NewFrame(s.DB(), s.Model()),
				Query: q.(*hyper.WhatIfQuery), Options: s.EngineOptions(),
			})
			check("Coordinator.EvaluateWhatIf", tc.whatIf, err)
		})
	}
}
