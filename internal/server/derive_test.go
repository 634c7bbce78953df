package server

import (
	"testing"

	"hyper/internal/obs"
)

// derivedFrom collects, by span name, the derived_from and derived_rows
// attributes of every span that records a derivation, and counts fit spans.
func derivedFrom(sj *obs.SpanJSON, into map[string][2]float64, fits *int) {
	if sj == nil {
		return
	}
	if sj.Name == "fit" {
		*fits++
	}
	if v, ok := sj.Attrs["derived_from"]; ok {
		rows, _ := sj.Attrs["derived_rows"].(float64)
		from, _ := v.(float64)
		into[sj.Name] = [2]float64{from, rows}
	}
	for _, c := range sj.Children {
		derivedFrom(c, into, fits)
	}
}

// TestHeadQueryShowsDerivation pins that derivation is visible: after one
// append, the head query's blocks, train and fit spans name the version they
// derived from and the rows they added to it, a derived fit still opens its
// fit span (fit spans equal trained models), and a fresh session holding the
// same rows derives nothing.
func TestHeadQueryShowsDerivation(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "s", 600)
	createLoansSession(t, ts.URL, "fresh", 700)
	trace := func(session string) (map[string][2]float64, *WhatIfResponse, int) {
		t.Helper()
		res := tracedWhatIf(t, ts.URL, QueryRequest{Session: session, Query: loansQuery})
		got, fits := map[string][2]float64{}, 0
		derivedFrom(res.Trace.Root, got, &fits)
		return got, res, fits
	}
	if got, _, _ := trace("s"); len(got) != 0 {
		t.Fatalf("first query of a session derived %v", got)
	}
	if resp := appendLoans(t, ts.URL, "s", 600, 700); resp.Version != 2 {
		t.Fatalf("append: %+v", resp)
	}
	got, head, fits := trace("s")
	for _, name := range []string{"blocks", "train", "fit"} {
		if got[name] != [2]float64{1, 100} {
			t.Errorf("head %s span: derived_from/derived_rows = %v, want [1 100] (all: %v)", name, got[name], got)
		}
	}
	if fits != head.TrainedModels || fits == 0 {
		t.Errorf("head: %d fit spans for %d trained models", fits, head.TrainedModels)
	}
	fresh, want, _ := trace("fresh")
	if len(fresh) != 0 {
		t.Errorf("fresh session derived %v", fresh)
	}
	if head.Value != want.Value || head.Sum != want.Sum || head.Count != want.Count {
		t.Errorf("head %v/%v/%v, fresh session %v/%v/%v", head.Value, head.Sum, head.Count, want.Value, want.Sum, want.Count)
	}
}
