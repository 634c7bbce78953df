package dataset

import (
	"math"

	"hyper/internal/causal"
	"hyper/internal/relation"
	"hyper/internal/stats"
)

// Amazon is the two-table product/review dataset of Figure 1 at evaluation
// scale (3k products, ~55k reviews in Table 1). Brand and Category drive
// Quality and Price; a review's Sentiment and Rating depend on the product's
// Quality and on its price relative to the mean price of its Category — the
// cross-tuple dependency of Figure 2 (one laptop's price affects other
// laptops' ratings through competition). That relative-price channel is
// declared as a cross-tuple edge in the causal model and exercised by the
// engine's ψ summary features.
type Amazon struct {
	DB    *relation.Database
	Model *causal.Model

	brands     []string
	categories []string
	// Stored state for counterfactual ground truth.
	prod    [][3]float64 // cat code, quality, price
	revProd []int        // review -> product index
	revNz   [][2]float64 // sentiment, rating noises
}

var amazonBrands = []string{"Apple", "Dell", "Toshiba", "Acer", "Asus", "HP", "Canon", "Sony", "Vaio", "Samsung"}
var amazonCategories = []string{"Laptop", "DSLR Camera", "Phone", "Tablet", "eBook"}

// brandQuality encodes the paper's qualitative ordering (Apple highest).
var brandQuality = []float64{0.95, 0.75, 0.7, 0.6, 0.62, 0.68, 0.72, 0.78, 0.58, 0.74}

var categoryBasePrice = []float64{900, 650, 700, 450, 20}

// AmazonSyn generates nProducts products with reviewsPer reviews on average.
func AmazonSyn(nProducts, reviewsPer int, seed int64) *Amazon {
	rng := stats.NewRNG(seed)
	a := &Amazon{brands: amazonBrands, categories: amazonCategories}

	prodRel := relation.NewRelation("Product", relation.MustSchema(
		relation.Column{Name: "PID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Category", Kind: relation.KindString},
		relation.Column{Name: "Brand", Kind: relation.KindString},
		relation.Column{Name: "Color", Kind: relation.KindString, Mutable: true},
		relation.Column{Name: "Quality", Kind: relation.KindFloat, Mutable: true},
		relation.Column{Name: "Price", Kind: relation.KindFloat, Mutable: true},
	))
	revRel := relation.NewRelation("Review", relation.MustSchema(
		relation.Column{Name: "PID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "ReviewID", Kind: relation.KindInt, Key: true},
		relation.Column{Name: "Sentiment", Kind: relation.KindFloat, Mutable: true},
		relation.Column{Name: "Rating", Kind: relation.KindInt, Mutable: true},
	))

	colors := []string{"Silver", "Black", "Blue", "Red", "White"}
	catMeanSum := make([]float64, len(amazonCategories))
	catCount := make([]int, len(amazonCategories))
	for i := 0; i < nProducts; i++ {
		cat := rng.Intn(len(amazonCategories))
		brand := rng.Intn(len(amazonBrands))
		quality := clampF(brandQuality[brand]+0.12*rng.NormFloat64(), 0.05, 1)
		price := categoryBasePrice[cat] * (0.55 + 0.9*quality) * math.Exp(0.18*rng.NormFloat64())
		a.prod = append(a.prod, [3]float64{float64(cat), quality, price})
		catMeanSum[cat] += price
		catCount[cat]++
		prodRel.MustInsert(relation.Int(int64(i)), relation.String(amazonCategories[cat]),
			relation.String(amazonBrands[brand]), relation.String(colors[rng.Intn(len(colors))]),
			relation.Float(quality), relation.Float(price))
	}
	catMean := make([]float64, len(amazonCategories))
	for c := range catMean {
		if catCount[c] > 0 {
			catMean[c] = catMeanSum[c] / float64(catCount[c])
		} else {
			catMean[c] = 1
		}
	}
	rid := 0
	for i := 0; i < nProducts; i++ {
		cat := int(a.prod[i][0])
		nrev := 1 + rng.Intn(2*reviewsPer-1) // mean ≈ reviewsPer
		for r := 0; r < nrev; r++ {
			nz := [2]float64{rng.NormFloat64() * 0.25, rng.NormFloat64() * 0.8}
			a.revProd = append(a.revProd, i)
			a.revNz = append(a.revNz, nz)
			sent, rating := reviewEq(a.prod[i][1], a.prod[i][2], catMean[cat], categoryBasePrice[cat], nz)
			revRel.MustInsert(relation.Int(int64(i)), relation.Int(int64(rid)),
				relation.Float(sent), relation.Int(int64(rating)))
			rid++
		}
	}
	db := relation.NewDatabase()
	db.MustAdd(prodRel)
	db.MustAdd(revRel)
	if err := db.AddForeignKey(relation.ForeignKey{
		Child: "Review", ChildCol: "PID", Parent: "Product", ParentCol: "PID"}); err != nil {
		panic(err)
	}
	a.DB = db
	a.Model = amazonModel()
	return a
}

// reviewEq computes a review's sentiment and rating from product quality,
// the price level relative to the category's base price (value for money),
// and the price relative to the category's current mean (competition, the
// cross-tuple channel).
func reviewEq(quality, price, catMean, catBase float64, nz [2]float64) (sent float64, rating int) {
	rel := (price - catMean) / catMean
	lvl := price/catBase - 1
	sent = clampF(2.1*quality-1+nz[0]-0.25*rel-0.2*lvl, -1, 1)
	rating = int(clampF(math.Round(2.6+2.4*quality-0.8*rel-0.7*lvl+nz[1]), 1, 5))
	return sent, rating
}

func amazonModel() *causal.Model {
	m := causal.NewModel()
	add := m.AddEdge
	add("Product.Brand", "Product.Quality")
	add("Product.Category", "Product.Price")
	add("Product.Quality", "Product.Price")
	add("Product.Quality", "Review.Rating")
	add("Product.Quality", "Review.Sentiment")
	add("Product.Price", "Review.Rating")
	add("Product.Price", "Review.Sentiment")
	add("Product.Color", "Review.Sentiment")
	// Cross-tuple: a product's price affects other products' ratings within
	// the same category (the dashed edges of Figure 2).
	m.AddCross(causal.CrossEdge{FromRel: "Product", FromAttr: "Price",
		ToRel: "Product", ToAttr: "Price", GroupBy: "Product.Category"})
	return m
}

// counterfactualRatings recomputes every review's rating with the recorded
// noise after applying priceFn to the prices of the products selected by sel
// (nil selects all), and calls visit once per review in generation order.
// Category mean prices are recomputed first, so the competitive cross-tuple
// channel is part of the ground truth.
func (a *Amazon) counterfactualRatings(sel func(prodIdx int) bool, priceFn func(pre float64) float64, visit func(prodIdx, rating int)) {
	n := len(a.prod)
	newPrice := make([]float64, n)
	catSum := map[int]float64{}
	catN := map[int]int{}
	for i := 0; i < n; i++ {
		p := a.prod[i][2]
		if sel == nil || sel(i) {
			p = priceFn(p)
		}
		newPrice[i] = p
		c := int(a.prod[i][0])
		catSum[c] += p
		catN[c]++
	}
	for r, pi := range a.revProd {
		c := int(a.prod[pi][0])
		mean := catSum[c] / float64(catN[c])
		_, rating := reviewEq(a.prod[pi][1], newPrice[pi], mean, categoryBasePrice[c], a.revNz[r])
		visit(pi, rating)
	}
}

// CounterfactualAvgRating returns, after the price update (see
// counterfactualRatings), (a) the average rating over all reviews and (b)
// the fraction of reviews with rating >= 4.
func (a *Amazon) CounterfactualAvgRating(sel func(prodIdx int) bool, priceFn func(pre float64) float64) (avg float64, fracGE4 float64) {
	total, ge4 := 0.0, 0
	a.counterfactualRatings(sel, priceFn, func(_, rating int) {
		total += float64(rating)
		if rating >= 4 {
			ge4++
		}
	})
	m := float64(len(a.revProd))
	return total / m, float64(ge4) / m
}

// counterfactualProductRatings returns each product's rating sum and review
// count after the price update; sum[i]/n[i] is a row of the engine's
// per-product AVG(Rating) view.
func (a *Amazon) counterfactualProductRatings(sel func(prodIdx int) bool, priceFn func(pre float64) float64) (sum []float64, n []int) {
	sum = make([]float64, len(a.prod))
	n = make([]int, len(a.prod))
	a.counterfactualRatings(sel, priceFn, func(pi, rating int) {
		sum[pi] += float64(rating)
		n[pi]++
	})
	return sum, n
}

// CounterfactualShareRated returns the share of products whose mean rating
// is at least min after applying priceFn to every price: the ground truth of
// COUNT(POST(Rtng) >= min) over the per-product view, as a share of its rows.
func (a *Amazon) CounterfactualShareRated(min float64, priceFn func(pre float64) float64) float64 {
	sum, n := a.counterfactualProductRatings(nil, priceFn)
	hit, m := 0, 0
	for i := range sum {
		if n[i] > 0 {
			m++
			if sum[i]/float64(n[i]) >= min {
				hit++
			}
		}
	}
	return float64(hit) / float64(m)
}

// CategoryIndex returns the code of a category name, or -1.
func (a *Amazon) CategoryIndex(name string) int {
	for i, c := range a.categories {
		if c == name {
			return i
		}
	}
	return -1
}

// ProductCategory returns the category code of product i.
func (a *Amazon) ProductCategory(i int) int { return int(a.prod[i][0]) }

// CounterfactualCategoryAvgRating returns the average per-product mean
// rating within one category after applying priceFn to the selected products
// (nil sel selects all) — matching the engine's AVG over the per-product
// AVG(Rating) view. Used to validate cross-tuple (ψ) effects: cutting ONE
// product's price changes its competitors' ratings through the category
// mean.
func (a *Amazon) CounterfactualCategoryAvgRating(category string, sel func(prodIdx int) bool, priceFn func(pre float64) float64) float64 {
	want := a.CategoryIndex(category)
	sum, n := a.counterfactualProductRatings(sel, priceFn)
	total, m := 0.0, 0
	for i := range sum {
		if n[i] > 0 && a.ProductCategory(i) == want {
			total += sum[i] / float64(n[i])
			m++
		}
	}
	if m == 0 {
		return 0
	}
	return total / float64(m)
}
