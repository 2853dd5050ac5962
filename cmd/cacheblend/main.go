// Command cacheblend regenerates the paper's evaluation figures as tables.
//
// Usage:
//
//	cacheblend -list                 # list reproducible figures
//	cacheblend -fig 12               # run one figure
//	cacheblend -fig all              # run everything
//	cacheblend -fig 12 -cases 50     # bigger quality sample
//	cacheblend -fig 14 -requests 3000
//	cacheblend -fig 7 -csv           # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure id to run (2,6,7,8,10,12,13,14,15,16,17,burst or 'all')")
		list     = flag.Bool("list", false, "list reproducible figures")
		cases    = flag.Int("cases", 25, "max dataset cases per quality experiment (0 = preset size)")
		requests = flag.Int("requests", 1500, "requests per serving-simulation point")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel = flag.Int("parallel", 0, "max simulation cells running concurrently (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()

	// Zero selects a default for each of these counts; a negative one is
	// rejected rather than read as zero.
	nonNegative := func(name string, v int) {
		if v < 0 {
			fmt.Fprintf(os.Stderr, "cacheblend: -%s %d: must be ≥ 0\n", name, v)
			os.Exit(2)
		}
	}
	nonNegative("requests", *requests)
	nonNegative("cases", *cases)
	nonNegative("parallel", *parallel)
	experiments.MaxParallel = *parallel

	if *list || *fig == "" {
		fmt.Println("reproducible figures:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-3s %s\n", e.ID, e.Desc)
		}
		if *fig == "" {
			fmt.Println("\nrun one with: cacheblend -fig <id>   (or -fig all)")
		}
		return
	}

	opts := experiments.RunOpts{MaxCases: *cases, Requests: *requests}
	var entries []experiments.Entry
	if *fig == "all" {
		entries = experiments.All()
	} else {
		e, ok := experiments.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "cacheblend: unknown figure %q (use -list)\n", *fig)
			os.Exit(2)
		}
		entries = []experiments.Entry{e}
	}

	for _, e := range entries {
		start := time.Now()
		tables := e.Run(opts)
		for _, t := range tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Print(t.Format())
			}
			fmt.Println()
		}
		fmt.Printf("(figure %s finished in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
