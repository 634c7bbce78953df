package experiments

import (
	"fmt"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/relation"
)

// Table1 reproduces Table 1: a Count what-if query per dataset under HypeR,
// HypeR-NB and Indep, plus the sampled variant on the largest dataset. The
// runtime is the second of two passes, which keeps large datasets affordable
// while smoothing allocator noise on small ones.
func Table1(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	adult := dataset.AdultSyn(r.n(32000), r.Seed)
	german := dataset.GermanLike(r.n(1000), r.Seed+1)
	amazon := dataset.AmazonSyn(r.n(3000), 18, r.Seed+2)
	student := dataset.StudentSyn(r.n(10000), 5, r.Seed+3)
	g20 := dataset.GermanSyn(r.n(20000), r.Seed+4)
	g1m := dataset.GermanSyn(r.n(1000000), r.Seed+5)
	germanSrc := countQuery("German", "Status", 3, "Credit") + germanCountFor

	for _, d := range []struct {
		name, query, src string
		db               *relation.Database
		model            *causal.Model
	}{
		{"Adult", "MaritalStatus = 1 | Age = 2", fmt.Sprintf(adultCountSrc, 1) + " AND PRE(Age) = 2", adult.DB, adult.Model},
		{"German", "Status = 3 | Age = 2", germanSrc, german.DB, german.Model},
		{"Amazon", "laptop prices × 0.9", amazonQuery("Category = 'Laptop'", 0.9, "COUNT(POST(Rtng) >= 4)"), amazon.DB, amazon.Model},
		{"Student-Syn", "Attendance = 9", studentQuery(dataset.StudentAttendance, 9, "COUNT(POST(Grade) >= 60)"), student.DB, student.Model},
		{"German-Syn (20k)", "Status = 3 | Age = 2", germanSrc, g20.DB, g20.Model},
		{"German-Syn (1M)", "Status = 3 | Age = 2", germanSrc, g1m.DB, g1m.Model},
	} {
		arms := []string{HypeR, NB, Indep}
		if d.db == g1m.DB {
			arms = append(arms, Sampled)
		}
		for _, arm := range arms {
			row := Row{Exp: "table1", Dataset: d.name, Query: d.query, Arm: arm, Truth: none}
			r.whatIf(row, d.db, d.model, d.src, r.options(arm))
			r.add(r.whatIf(row, d.db, d.model, d.src, r.options(arm)))
		}
	}
	return r.done()
}
