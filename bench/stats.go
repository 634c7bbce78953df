package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailPerMille are the candidate tail percentiles in tenths of a percent,
// highest first (integers, so "ten samples beyond" is exact arithmetic).
var tailPerMille = []int{999, 995, 990, 980, 950, 900, 750}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it — the furthest tail the sample count supports — and
// returns it with its value. With fewer than 40 samples no listed
// percentile qualifies and it reports the median (percentile 50).
func tailPercentile(xs []float64) (pctile, value float64) {
	for _, pm := range tailPerMille {
		if len(xs)*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, quantile(xs, float64(pm)/1000)
		}
	}
	return 50, median(xs)
}

// spreadPct is the interquartile range as a percentage of the median: the
// run-to-run spread measure the acceptance check uses.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// mixP50 is the latency of the workload's fixed template mix: the median
// latency of each template, averaged over the templates. A plain median
// over a mix whose templates cost different amounts sits between two modes
// and jumps from one to the other as their shares drift; this does not.
func mixP50(perTemplate [][]float64) float64 {
	var meds []float64
	for _, xs := range perTemplate {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

func flatten(perTemplate [][]float64) []float64 {
	var all []float64
	for _, xs := range perTemplate {
		all = append(all, xs...)
	}
	return all
}
