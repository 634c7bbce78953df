package dataset

import (
	"fmt"
	"math"

	"hyper/internal/causal"
	"hyper/internal/relation"
	"hyper/internal/stats"
)

// Student is the two-table Student-Syn dataset of Section 5.1: a Student
// table (age, gender, country of origin, attendance) and a Participation
// table (five course enrollments per student with discussion points,
// hand-raised counts, announcements read, assignment scores, and grade).
// Attendance drives discussions, announcements and assignment scores; the
// grade is driven most directly by the assignment score but attendance has
// the largest total effect through its downstream children — the two
// findings of Sections 5.3/5.4.
type Student struct {
	DB    *relation.Database
	Model *causal.Model

	nStudents int
	perCourse int
	// Stored states and noises for counterfactual ground truth.
	stu    [][]float64 // [i]: Age, Gender, Country, Attendance
	stuNz  []float64   // attendance noise
	partNz [][]float64 // [i*perCourse+c]: noises for the 5 participation equations
}

// stuAttendance is Attendance's position in a stu row.
const stuAttendance = 3

// Student equation set, shared by generation and counterfactuals.

func attendanceEq(age, gender, country, nz float64) float64 {
	return clampRound(2.2+0.9*age+0.5*gender+0.25*country+nz, 0, 9)
}

func discussionEq(att, nz float64) float64 { return clampRound(0.8*att+nz, 0, 10) }
func handRaisedEq(att, nz float64) float64 { return clampRound(0.35*att+1+nz, 0, 10) }
func announceEq(att, nz float64) float64   { return clampRound(0.7*att+nz, 0, 10) }
func assignmentEq(att, nz float64) float64 { return clampF(28+5.5*att+6*nz, 0, 100) }

func gradeEq(assignment, att, disc, ann, hand, nz float64) float64 {
	return clampF(0.45*assignment+2.0*att+1.1*disc+0.8*ann+0.4*hand+4*nz, 0, 100)
}

func clampRound(x, lo, hi float64) float64 {
	return clampF(math.Round(x), lo, hi)
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// StudentSyn generates nStudents students with coursesPer participation rows
// each (the paper uses 10k students x 5 courses = 50k participations).
func StudentSyn(nStudents, coursesPer int, seed int64) *Student {
	return StudentSynWide(nStudents, coursesPer, 0, seed)
}

// StudentSynWide is StudentSyn with extra synthetic mutable participation
// attributes Extra1..ExtraN (each weakly driven by attendance), matching the
// query-complexity experiments of Section 5.5 that "synthetically add
// multiple attributes" to the dataset (Figure 11).
func StudentSynWide(nStudents, coursesPer, extra int, seed int64) *Student {
	rng := stats.NewRNG(seed)
	s := &Student{nStudents: nStudents, perCourse: coursesPer}

	stuRel := relation.NewRelation("Student", relation.MustSchema(
		relation.Column{Name: "SID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Age", Kind: relation.KindInt},
		relation.Column{Name: "Gender", Kind: relation.KindInt},
		relation.Column{Name: "Country", Kind: relation.KindInt},
		relation.Column{Name: "Attendance", Kind: relation.KindInt, Mutable: true},
	))
	partCols := []relation.Column{
		{Name: "SID", Kind: relation.KindInt, Key: true},
		{Name: "Course", Kind: relation.KindInt, Key: true},
		{Name: "Discussion", Kind: relation.KindInt, Mutable: true},
		{Name: "HandRaised", Kind: relation.KindInt, Mutable: true},
		{Name: "Announcements", Kind: relation.KindInt, Mutable: true},
		{Name: "Assignment", Kind: relation.KindFloat, Mutable: true},
		{Name: "Grade", Kind: relation.KindFloat, Mutable: true},
	}
	for x := 1; x <= extra; x++ {
		partCols = append(partCols, relation.Column{
			Name: fmt.Sprintf("Extra%d", x), Kind: relation.KindInt, Mutable: true})
	}
	partRel := relation.NewRelation("Participation", relation.MustSchema(partCols...))

	s.stu = make([][]float64, nStudents)
	s.stuNz = make([]float64, nStudents)
	s.partNz = make([][]float64, nStudents*coursesPer)
	for i := 0; i < nStudents; i++ {
		age := math.Floor(rng.Float64() * 4)
		gender := math.Floor(rng.Float64() * 2)
		country := math.Floor(rng.Float64() * 5)
		nz := rng.NormFloat64() * 1.3
		att := attendanceEq(age, gender, country, nz)
		s.stu[i] = []float64{age, gender, country, att}
		s.stuNz[i] = nz
		stuRel.MustInsert(relation.Int(int64(i)), relation.Int(int64(age)),
			relation.Int(int64(gender)), relation.Int(int64(country)), relation.Int(int64(att)))
		for c := 0; c < coursesPer; c++ {
			pnz := []float64{
				rng.NormFloat64() * 1.2, // discussion
				rng.NormFloat64() * 1.2, // hand raised
				rng.NormFloat64() * 1.1, // announcements
				rng.NormFloat64(),       // assignment
				rng.NormFloat64(),       // grade
			}
			s.partNz[i*coursesPer+c] = pnz
			disc := discussionEq(att, pnz[0])
			hand := handRaisedEq(att, pnz[1])
			ann := announceEq(att, pnz[2])
			asg := assignmentEq(att, pnz[3])
			grade := gradeEq(asg, att, disc, ann, hand, pnz[4])
			vals := []relation.Value{relation.Int(int64(i)), relation.Int(int64(c)),
				relation.Int(int64(disc)), relation.Int(int64(hand)), relation.Int(int64(ann)),
				relation.Float(asg), relation.Float(grade)}
			for x := 1; x <= extra; x++ {
				ev := clampRound(0.3*att+rng.NormFloat64()*1.2+1.5, 0, 5)
				vals = append(vals, relation.Int(int64(ev)))
			}
			partRel.MustInsert(vals...)
		}
	}
	db := relation.NewDatabase()
	db.MustAdd(stuRel)
	db.MustAdd(partRel)
	if err := db.AddForeignKey(relation.ForeignKey{
		Child: "Participation", ChildCol: "SID", Parent: "Student", ParentCol: "SID"}); err != nil {
		panic(err)
	}
	s.DB = db
	s.Model = studentModel()
	return s
}

func studentModel() *causal.Model {
	m := causal.NewModel()
	add := m.AddEdge
	add("Student.Age", "Student.Attendance")
	add("Student.Gender", "Student.Attendance")
	add("Student.Country", "Student.Attendance")
	add("Student.Attendance", "Participation.Discussion")
	add("Student.Attendance", "Participation.HandRaised")
	add("Student.Attendance", "Participation.Announcements")
	add("Student.Attendance", "Participation.Assignment")
	add("Student.Attendance", "Participation.Grade")
	add("Participation.Discussion", "Participation.Grade")
	add("Participation.HandRaised", "Participation.Grade")
	add("Participation.Announcements", "Participation.Grade")
	add("Participation.Assignment", "Participation.Grade")
	return m
}

// Intervention targets for CounterfactualAvgGrade.
const (
	StudentAttendance    = "Attendance"
	StudentDiscussion    = "Discussion"
	StudentHandRaised    = "HandRaised"
	StudentAnnouncements = "Announcements"
	StudentAssignment    = "Assignment"
)

// CounterfactualAvgGrade recomputes every participation row's grade with the
// recorded noise after intervening do(attr := set(pre)) and returns the
// average grade — the exact ground truth for the Figure 10b queries.
// Interventions on Attendance propagate to all downstream participation
// attributes; interventions on a participation attribute cut its own
// equation and propagate only to the grade.
func (s *Student) CounterfactualAvgGrade(attr string, set func(pre float64) float64) float64 {
	total, n := 0.0, 0
	for i := 0; i < s.nStudents; i++ {
		att := s.stu[i][stuAttendance]
		if attr == StudentAttendance {
			att = clampF(math.Round(set(att)), 0, 9)
		}
		for c := 0; c < s.perCourse; c++ {
			pnz := s.partNz[i*s.perCourse+c]
			disc := discussionEq(att, pnz[0])
			hand := handRaisedEq(att, pnz[1])
			ann := announceEq(att, pnz[2])
			asg := assignmentEq(att, pnz[3])
			switch attr {
			case StudentDiscussion:
				disc = clampF(math.Round(set(disc)), 0, 10)
			case StudentHandRaised:
				hand = clampF(math.Round(set(hand)), 0, 10)
			case StudentAnnouncements:
				ann = clampF(math.Round(set(ann)), 0, 10)
			case StudentAssignment:
				asg = clampF(set(asg), 0, 100)
			}
			total += gradeEq(asg, att, disc, ann, hand, pnz[4])
			n++
		}
	}
	return total / float64(n)
}

// AvgGrade returns the observed average grade.
func (s *Student) AvgGrade() float64 {
	return s.CounterfactualAvgGrade("", func(pre float64) float64 { return pre })
}
