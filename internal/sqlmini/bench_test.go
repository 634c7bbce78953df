package sqlmini

// BenchmarkRunSelect is step 1 of the paper's Figure-1 what-if: the join +
// GROUP BY view over 4,000 products and their reviews, materialised column
// by column.

import (
	"testing"

	"hyper/internal/dataset"
)

// figure1Select is the Figure-1 view's sub-select.
const figure1Select = `SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality, AVG(T2.Rating) AS Rtng
FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID
GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality`

func BenchmarkRunSelect(b *testing.B) {
	db := dataset.AmazonSyn(4000, 12, 7).DB
	sel := parseSelect(b, figure1Select)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := RunSelect(db, sel, "V")
		if err != nil {
			b.Fatal(err)
		}
		if v.Len() != 4000 {
			b.Fatalf("%d view rows, want 4000", v.Len())
		}
	}
}
