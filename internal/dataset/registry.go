package dataset

import (
	"fmt"
	"sort"

	"hyper/internal/causal"
	"hyper/internal/relation"
)

// Builder is a named dataset constructor for the serving layer: cmd/hyperd
// creates sessions from registry names. Scale multiplies the default row
// counts (1.0 reproduces the sizes used throughout the tests; serving
// sessions usually want less).
type Builder struct {
	Name        string
	Description string
	Build       func(scale float64, seed int64) (*relation.Database, *causal.Model)
}

// scaled returns n*scale clamped to at least lo.
func scaled(n int, scale float64, lo int) int {
	if scale <= 0 {
		scale = 1
	}
	out := int(float64(n) * scale)
	if out < lo {
		out = lo
	}
	return out
}

// builders lists every named dataset in registry order.
var builders = []Builder{
	{
		Name:        "toy",
		Description: "the 5-product/6-review Amazon database of Figure 1 with the causal diagram of Figure 2",
		Build: func(_ float64, _ int64) (*relation.Database, *causal.Model) {
			return Toy()
		},
	},
	{
		Name:        "german",
		Description: "German-Syn credit dataset (discrete; 5k rows at scale 1)",
		Build: func(scale float64, seed int64) (*relation.Database, *causal.Model) {
			g := GermanSyn(scaled(5000, scale, 100), seed)
			return g.DB, g.Model
		},
	},
	{
		Name:        "german-cont",
		Description: "German-Syn with continuous CreditAmount (5k rows at scale 1)",
		Build: func(scale float64, seed int64) (*relation.Database, *causal.Model) {
			g := GermanSynContinuous(scaled(5000, scale, 100), seed)
			return g.DB, g.Model
		},
	},
	{
		Name:        "adult",
		Description: "Adult-Syn income dataset (8k rows at scale 1)",
		Build: func(scale float64, seed int64) (*relation.Database, *causal.Model) {
			a := AdultSyn(scaled(8000, scale, 100), seed)
			return a.DB, a.Model
		},
	},
	{
		Name:        "amazon",
		Description: "Amazon-Syn product/review pair with the cross-tuple price channel (1.5k products at scale 1)",
		Build: func(scale float64, seed int64) (*relation.Database, *causal.Model) {
			a := AmazonSyn(scaled(1500, scale, 50), 12, seed)
			return a.DB, a.Model
		},
	},
	{
		Name:        "student",
		Description: "Student-Syn participation dataset (500 students at scale 1)",
		Build: func(scale float64, seed int64) (*relation.Database, *causal.Model) {
			s := StudentSyn(scaled(500, scale, 20), 4, seed)
			return s.DB, s.Model
		},
	},
}

// Registry returns the named dataset builders in a stable order.
func Registry() []Builder {
	return append([]Builder(nil), builders...)
}

// Names returns the sorted registry names.
func Names() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = b.Name
	}
	sort.Strings(out)
	return out
}

// Lookup finds a builder by name.
func Lookup(name string) (Builder, error) {
	for _, b := range builders {
		if b.Name == name {
			return b, nil
		}
	}
	return Builder{}, fmt.Errorf("dataset: unknown dataset %q (known: %v)", name, Names())
}
