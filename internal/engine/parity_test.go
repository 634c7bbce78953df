package engine

// Parity goldens: these pin the exact results (value, sum, count, estimator
// choice) of a representative set of what-if queries on the toy and German
// datasets. The columnar/integer-keyed estimator substrate must reproduce
// the string-keyed row-oriented path bit for bit — estimator selection,
// training, and evaluation order are all deterministic — so the goldens are
// compared exactly (17 significant digits round-trips float64).

import (
	"strconv"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
)

const toyUse = `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand,
	AVG(T2.Rating) AS Rtng
	FROM Product AS T1, Review AS T2
	WHERE T1.PID = T2.PID
	GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand)`

// amazonUse is the benchmark's Figure-1 view (bench/gen.go amazonView): one
// row per product with its average review rating.
const amazonUse = `USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality,
	AVG(T2.Rating) AS Rtng
	FROM Product AS T1, Review AS T2
	WHERE T1.PID = T2.PID
	GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality)`

// parityCase is one pinned query; golden fields are filled from a reference
// run of the pre-columnar engine (formatted with strconv 'g' 17).
type parityCase struct {
	name      string
	dataset   string // "toy", "german", "german-cont", "amazon"
	query     string
	opts      Options
	estimator string
	value     string
	sum       string
	count     string
	// Checked when viewRows != 0: the amazon rows also pin the join's view
	// size, the update set and the number of forests fitted.
	viewRows, updated, trained int
}

var parityCases = []parityCase{
	{
		name:    "toy-avg-forest",
		dataset: "toy",
		query: toyUse + `
			WHEN Brand = 'Asus'
			UPDATE(Price) = 1.1 * PRE(Price)
			OUTPUT AVG(POST(Rtng))
			FOR PRE(Category) = 'Laptop'`,
		opts:      Options{Seed: 7},
		estimator: "forest",
		value:     "2.6302810387072708",
		sum:       "7.890843116121812",
		count:     "3",
	},
	{
		name:    "toy-count-forest",
		dataset: "toy",
		query: toyUse + `
			WHEN Category = 'Laptop'
			UPDATE(Price) = 0.9 * PRE(Price)
			OUTPUT COUNT(Rtng >= 3)`,
		opts:      Options{Seed: 7},
		estimator: "forest",
		value:     "3.0164232105584294",
		sum:       "3.0164232105584294",
		count:     "3.0164232105584294",
	},
	{
		name:      "german-freq-count",
		dataset:   "german",
		query:     `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		opts:      Options{Seed: 7},
		estimator: "freq",
		value:     "875.68587543540139",
		sum:       "875.68587543540139",
		count:     "875.68587543540139",
	},
	{
		name:      "german-freq-for",
		dataset:   "german",
		query:     `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
		opts:      Options{Seed: 7},
		estimator: "freq",
		value:     "200.42631578947365",
		sum:       "200.42631578947365",
		count:     "200.42631578947365",
	},
	{
		name:      "german-freq-avg",
		dataset:   "german",
		query:     `USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`,
		opts:      Options{Seed: 7},
		estimator: "freq",
		value:     "0.54230515508956301",
		sum:       "542.30515508956296",
		count:     "1000",
	},
	{
		name:    "german-freq-sampled",
		dataset: "german",
		query:   `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		// The sampled support drops below the fallback threshold, so this
		// case pins the freq→forest fallback decision as well as the value.
		opts:      Options{Seed: 7, SampleSize: 500},
		estimator: "forest",
		value:     "814.43866518485299",
		sum:       "814.43866518485299",
		count:     "814.43866518485299",
	},
	{
		name:      "german-cont-boosted",
		dataset:   "german-cont",
		query:     `USE German UPDATE(CreditAmount) = 1.2 * PRE(CreditAmount) OUTPUT COUNT(Credit = 1)`,
		opts:      Options{Seed: 7},
		estimator: "forest",
		value:     "377.29518332199797",
		sum:       "377.29518332199797",
		count:     "377.29518332199797",
	},
	// The two join_forest benchmark templates over Amazon-Syn, recorded at
	// the commit before the split search ran on column ranks and the join on
	// codes: the join + GROUP BY view feeding a forest is the shape that
	// change speeds up, and these rows hold it to the old bits.
	{
		name:    "amazon-avg-for-forest",
		dataset: "amazon",
		query: amazonUse + `
			WHEN Category = 'Laptop'
			UPDATE(Price) = 0.90 * PRE(Price)
			OUTPUT AVG(POST(Rtng))
			FOR PRE(Category) = 'Laptop'`,
		opts:      Options{Seed: 7},
		estimator: "forest",
		value:     "4.1136798655841149",
		sum:       "271.50287112855159",
		count:     "66",
		viewRows:  300, updated: 66, trained: 2,
	},
	{
		name:    "amazon-count-forest",
		dataset: "amazon",
		query: amazonUse + `
			WHEN Category = 'Phone'
			UPDATE(Price) = 1.10 * PRE(Price)
			OUTPUT COUNT(POST(Rtng) >= 4)`,
		opts:      Options{Seed: 7},
		estimator: "forest",
		value:     "204.6225173253587",
		sum:       "204.6225173253587",
		count:     "204.6225173253587",
		viewRows:  300, updated: 67, trained: 1,
	},
}

func parityEval(t testing.TB, c parityCase) *Result {
	t.Helper()
	var res *Result
	q, err := hyperql.ParseWhatIf(c.query)
	if err != nil {
		t.Fatalf("%s: parse: %v", c.name, err)
	}
	switch c.dataset {
	case "toy":
		db, model := dataset.Toy()
		res, err = Evaluate(db, model, q, c.opts)
	case "german":
		g := dataset.GermanSyn(1000, 7)
		res, err = Evaluate(g.DB, g.Model, q, c.opts)
	case "german-cont":
		g := dataset.GermanSynContinuous(1000, 7)
		res, err = Evaluate(g.DB, g.Model, q, c.opts)
	case "amazon":
		a := dataset.AmazonSyn(300, 6, 7)
		res, err = Evaluate(a.DB, a.Model, q, c.opts)
	default:
		t.Fatalf("%s: unknown dataset %q", c.name, c.dataset)
	}
	if err != nil {
		t.Fatalf("%s: evaluate: %v", c.name, err)
	}
	return res
}

func f17(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

func TestWhatIfParityGoldens(t *testing.T) {
	for _, c := range parityCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := parityEval(t, c)
			if res.EstimatorUsed != c.estimator {
				t.Errorf("estimator = %q, golden %q", res.EstimatorUsed, c.estimator)
			}
			if got := f17(res.Value); got != c.value {
				t.Errorf("value = %s, golden %s", got, c.value)
			}
			if got := f17(res.Sum); got != c.sum {
				t.Errorf("sum = %s, golden %s", got, c.sum)
			}
			if got := f17(res.Count); got != c.count {
				t.Errorf("count = %s, golden %s", got, c.count)
			}
			if c.viewRows != 0 && (res.ViewRows != c.viewRows || res.UpdatedRows != c.updated || res.TrainedModels != c.trained) {
				t.Errorf("view rows/updated/trained = %d/%d/%d, golden %d/%d/%d",
					res.ViewRows, res.UpdatedRows, res.TrainedModels, c.viewRows, c.updated, c.trained)
			}
		})
	}
}
