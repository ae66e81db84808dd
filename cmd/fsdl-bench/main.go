// Command fsdl-bench runs the reproduction experiments E1–E15 (see
// DESIGN.md and EXPERIMENTS.md) and prints their reports.
//
// Usage:
//
//	fsdl-bench [-exp E1|E2|...|all] [-quick] [-seed N] [-workers N]
//	fsdl-bench -chaos [-quick] [-seed N]   # resilience scenario (alias for -exp E15)
//	fsdl-bench -json PATH [-quick] [-timed] [-baseline OLD.json] [-compare OLD.json]  # machine-readable perf baseline (see docs/PERFORMANCE.md)
//	fsdl-bench -paired DIR [-json RECORD.json]  # gate interleaved parent/change rounds on their medians
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"fsdl/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fsdl-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("fsdl-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run (E1..E15, or 'all')")
	quick := fs.Bool("quick", false, "shrink instance sizes for a fast smoke run")
	seed := fs.Int64("seed", 1, "random seed")
	list := fs.Bool("list", false, "list experiments and exit")
	chaos := fs.Bool("chaos", false, "run the chaos/resilience scenario (alias for -exp E15)")
	jsonPath := fs.String("json", "", "run the perf-baseline suite and write JSON to this path ('-' for stdout)")
	baseline := fs.String("baseline", "", "with -json: compare allocs/op against this committed baseline and fail on regression")
	timed := fs.Bool("timed", false, "with -json: run only the timed rows, those -paired compares")
	paired := fs.String("paired", "", "gate the rounds DIR/parent-*.json against DIR/change-*.json on their medians (timed rows, 30%); with -json, write the record there")
	compare := fs.String("compare", "", "with -json: print a markdown old-vs-new table against this document (informational, never fails)")
	workers := fs.Int("workers", 0, "cap GOMAXPROCS for the whole run (0 = leave as is)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *paired != "" {
		rec, err := pairedGate(*paired, out)
		if *jsonPath != "" {
			if werr := writeDoc(*jsonPath, rec, out); werr != nil {
				return werr
			}
		}
		return err
	}
	if *jsonPath != "" {
		return runJSON(*jsonPath, *quick, *timed, *baseline, *compare, out)
	}
	if *baseline != "" {
		return fmt.Errorf("-baseline requires -json")
	}
	if *compare != "" {
		return fmt.Errorf("-compare requires -json")
	}
	if *chaos {
		if *exp != "all" && !strings.EqualFold(*exp, "E15") {
			return fmt.Errorf("-chaos conflicts with -exp %s", *exp)
		}
		*exp = "E15"
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-4s %-45s %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	cfg := experiments.Config{Out: out, Quick: *quick, Seed: *seed}
	if strings.EqualFold(*exp, "all") {
		return experiments.RunAll(cfg)
	}
	e, ok := experiments.Find(strings.ToUpper(*exp))
	if !ok {
		var ids []string
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		return fmt.Errorf("unknown experiment %q (have %s)", *exp, strings.Join(ids, ", "))
	}
	fmt.Fprintf(out, "== %s: %s ==\nclaim: %s\n\n", e.ID, e.Title, e.Claim)
	return e.Run(cfg)
}
