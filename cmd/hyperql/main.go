// Command hyperql runs HypeRQL what-if and how-to queries against CSV data.
//
// Usage:
//
//	hyperql -table German=german.csv -model german_model.txt \
//	    -query "USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)"
//
//	hyperql -table Product=p.csv -table Review=r.csv -model amazon_model.txt \
//	    -file query.hql -mode nb -sample 100000
//
// With no -query/-file, queries are read from stdin, one per line (a
// primitive REPL; end with EOF). The -model file uses the format written by
// cmd/hypergen (edges, CROSS edges, FK declarations). Without -model the
// engine runs in no-background mode.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"hyper"
	"hyper/internal/causal"
	"hyper/internal/relation"
)

type tableFlags []string

func (t *tableFlags) String() string     { return strings.Join(*t, ",") }
func (t *tableFlags) Set(s string) error { *t = append(*t, s); return nil }

func main() {
	var tables tableFlags
	flag.Var(&tables, "table", "Name=path.csv (repeatable)")
	modelPath := flag.String("model", "", "causal model file (hypergen format)")
	query := flag.String("query", "", "query text")
	file := flag.String("file", "", "file containing one query")
	mode := flag.String("mode", "full", "full, nb, or indep")
	sample := flag.Int("sample", 0, "HypeR-sampled training-sample size (0 = all rows)")
	seed := flag.Int64("seed", 7, "random seed")
	flag.Parse()

	if len(tables) == 0 {
		fatal("at least one -table Name=path.csv is required")
	}
	db := relation.NewDatabase()
	for _, t := range tables {
		name, path, ok := strings.Cut(t, "=")
		if !ok {
			fatal("bad -table %q; want Name=path.csv", t)
		}
		rel, err := relation.LoadCSV(name, path)
		if err != nil {
			fatal("loading %s: %v", path, err)
		}
		if err := db.Add(rel); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d rows, schema [%s]\n", name, rel.Len(), rel.Schema())
	}

	var model *causal.Model
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			fatal("%v", err)
		}
		var fks []relation.ForeignKey
		model, fks, err = causal.ParseModel(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
		for _, fk := range fks {
			if err := db.AddForeignKey(fk); err != nil {
				fatal("%v", err)
			}
		}
		if err := model.Validate(db); err != nil {
			fatal("%v", err)
		}
	}

	s := hyper.NewSession(db, model)
	opts := hyper.Options{SampleSize: *sample, Seed: *seed}
	switch *mode {
	case "full":
		opts.Mode = hyper.ModeFull
	case "nb":
		opts.Mode = hyper.ModeNB
	case "indep":
		opts.Mode = hyper.ModeIndep
	default:
		fatal("unknown -mode %q", *mode)
	}
	s.SetOptions(opts)

	run := func(src string) {
		q, err := hyper.Parse(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		res, err := s.Run(context.Background(), q, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		switch r := res.(type) {
		case *hyper.WhatIfResult:
			fmt.Printf("what-if result: %.6g\n  %s\n", r.Value, r)
		case *hyper.HowToResult:
			fmt.Printf("how-to result: %s\n  candidates=%d what-if-evals=%d ip-nodes=%d time=%s\n",
				r, r.Candidates, r.WhatIfEvals, r.IPNodes, r.Total)
		}
	}

	switch {
	case *query != "":
		run(*query)
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fatal("%v", err)
		}
		run(string(b))
	default:
		fmt.Fprintln(os.Stderr, "reading queries from stdin (one per line)")
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			run(line)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hyperql: "+format+"\n", args...)
	os.Exit(1)
}
