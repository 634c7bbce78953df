package hyper

import (
	"context"
	"math"
	"strings"
	"testing"

	"hyper/internal/dataset"
)

func germanSession(t *testing.T) (*Session, float64) {
	t.Helper()
	g := dataset.GermanSyn(5000, 7)
	s := NewSession(g.DB, g.Model)
	s.SetOptions(Options{Seed: 7})
	return s, float64(g.Rel().Len())
}

func TestSessionHowToBruteForceAgreesWithIP(t *testing.T) {
	s, _ := germanSession(t)
	src := `USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	ipRes, err := s.HowTo(src)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := s.HowToBruteForce(context.Background(), mustParse[*HowToQuery](t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Single attribute: the IP and exhaustive search must agree exactly.
	if ipRes.Choices[0].String() != bf.Choices[0].String() {
		t.Errorf("IP chose %s, brute force %s", ipRes.Choices[0], bf.Choices[0])
	}
	if math.Abs(ipRes.Objective-bf.Objective) > 1e-6 {
		t.Errorf("objectives differ: %.4f vs %.4f", ipRes.Objective, bf.Objective)
	}
}

func TestSessionHowToMinimizeCost(t *testing.T) {
	s, n := germanSession(t)
	res, err := s.HowToMinimizeCost(context.Background(), mustParse[*HowToQuery](t, `USE German HOWTOUPDATE Status, Savings TOMAXIMIZE COUNT(Credit = 1)`), 0.65*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective < 0.65*n-1 {
		t.Errorf("objective %.1f misses target %.1f", res.Objective, 0.65*n)
	}
}

func TestSessionHowToLexicographic(t *testing.T) {
	s, _ := germanSession(t)
	res, err := s.HowToLexicographic(context.Background(), nil,
		mustParse[*HowToQuery](t, `USE German HOWTOUPDATE Status, Savings TOMAXIMIZE COUNT(Credit = 1)`),
		mustParse[*HowToQuery](t, `USE German HOWTOUPDATE Status, Savings TOMINIMIZE AVG(POST(Savings))`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Choices) != 2 {
		t.Errorf("choices = %v", res.Choices)
	}
	if _, err := s.HowToLexicographic(context.Background(), nil); err == nil {
		t.Error("no objectives should fail")
	}
}

func TestSessionAccessorsAndOptions(t *testing.T) {
	s, _ := germanSession(t)
	if s.DB() == nil || s.Model() == nil {
		t.Error("accessors")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
	s.SetOptions(Options{Mode: ModeIndep, SampleSize: 123, Seed: 9, Buckets: 5})
	if got := s.Options(); got.SampleSize != 123 || got.Mode != ModeIndep {
		t.Errorf("options round trip: %+v", got)
	}
	// Nil model session validates trivially and evaluates in NB mode.
	g := dataset.GermanSyn(1000, 9)
	nilModel := NewSession(g.DB, nil)
	if err := nilModel.Validate(); err != nil {
		t.Errorf("nil model validate: %v", err)
	}
	res, err := nilModel.WhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeNB {
		t.Errorf("nil-model evaluation should run in NB mode, got %s", res.Mode)
	}
}

func TestSessionExplain(t *testing.T) {
	s, _ := germanSession(t)
	plan, err := s.Explain(context.Background(), mustParse[*WhatIfQuery](t, `USE German WHEN Age = 0 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Sex) = 1`))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"relevant view: 5000 rows", "backdoor set:", "Age", "estimator:", "blocks:"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if _, err := s.Explain(context.Background(), mustParse[*WhatIfQuery](t, `USE German UPDATE(Nope) = 3 OUTPUT COUNT(*)`)); err == nil {
		t.Error("a query naming an unknown column should not explain")
	}
}

func TestValueConstructorsReexported(t *testing.T) {
	if Int(3).AsInt() != 3 || Float(1.5).AsFloat() != 1.5 ||
		String("x").AsString() != "x" || !Bool(true).AsBool() || !Null.IsNull() {
		t.Error("re-exported constructors misbehave")
	}
}

func TestParseErrorsSurface(t *testing.T) {
	s, _ := germanSession(t)
	for _, call := range []func() error{
		func() error { _, err := s.WhatIf(`garbage`); return err },
		func() error { _, err := s.HowTo(`garbage`); return err },
		func() error { _, err := Parse(`garbage`); return err },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "hyperql") {
			t.Errorf("parse error should surface, got %v", err)
		}
	}
	// Kind mismatches between the what-if and how-to text entry points.
	if _, err := s.WhatIf(`USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`); err == nil || !strings.Contains(err.Error(), "hyperql: expected a what-if") {
		t.Errorf("WhatIf on a how-to query should fail, got %v", err)
	}
	if _, err := s.HowTo(`USE German UPDATE(Status) = 3 OUTPUT COUNT(*)`); err == nil || !strings.Contains(err.Error(), "hyperql: expected a how-to") {
		t.Errorf("HowTo on a what-if query should fail, got %v", err)
	}
}
