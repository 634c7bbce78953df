package hyperql

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateRender = flag.Bool("update", false, "rewrite testdata/render.golden from the current renderings")

// whenConjuncts splits a WHEN tree at its top-level ANDs, in source order.
func whenConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(whenConjuncts(b.L), whenConjuncts(b.R)...)
	}
	return []Expr{e}
}

// renderRecord writes every rendering of q that leaves the package: the
// canonical String, the literal-masked Shape and its Fingerprint, each
// update's and LIMIT constraint's String, and ShapeExpr of each WHEN
// conjunct and of FOR (the texts a shape-keyed plan's EXPLAIN prints).
func renderRecord(b *strings.Builder, src string, q Query) {
	fmt.Fprintf(b, "== %s\n", src)
	fmt.Fprintf(b, "string: %s\n", q.String())
	fmt.Fprintf(b, "shape:  %s\n", Shape(q))
	fmt.Fprintf(b, "fp:     %s\n", Fingerprint("g", q))
	var when, forExpr Expr
	switch x := q.(type) {
	case *WhatIf:
		when, forExpr = x.When, x.For
		for _, u := range x.Updates {
			fmt.Fprintf(b, "update: %s\n", u)
		}
	case *HowTo:
		when, forExpr = x.When, x.For
		for _, l := range x.Limits {
			fmt.Fprintf(b, "limit:  %s\n", l)
		}
	}
	if when != nil {
		for _, c := range whenConjuncts(when) {
			fmt.Fprintf(b, "when:   %s\n", ShapeExpr(c))
		}
	}
	if forExpr != nil {
		fmt.Fprintf(b, "for:    %s\n", ShapeExpr(forExpr))
	}
}

// TestRenderGolden pins every rendering of the corpus in
// testdata/render_corpus.hql byte for byte. The golden was written by the
// two hand-kept renderers (String and Shape) that the one printer replaced,
// so it is an oracle the printer did not produce. Rewrite it only for a
// deliberate rendering change: go test -run TestRenderGolden -update.
func TestRenderGolden(t *testing.T) {
	f, err := os.Open("testdata/render_corpus.hql")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b strings.Builder
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		src := strings.TrimSpace(sc.Text())
		if src == "" || strings.HasPrefix(src, "#") {
			continue
		}
		q, err := Parse(src)
		if err != nil {
			t.Errorf("corpus query does not parse: %q: %v", src, err)
			continue
		}
		renderRecord(&b, src, q)
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Errorf("corpus holds %d queries, want at least 100", n)
	}
	const golden = "testdata/render.golden"
	if *updateRender {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", golden, len(gl), len(wl))
	}
}
