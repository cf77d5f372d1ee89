// Command paperexp regenerates the tables and figures of the paper's
// evaluation section (DSN 2005).
//
// Examples:
//
//	paperexp -list
//	paperexp -id fig6
//	paperexp -id table3 -scale paper
//	paperexp -all -scale quick -csv out/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"manetsim"
	"manetsim/internal/exp"
)

func main() {
	var (
		id     = flag.String("id", "", "experiment id (e.g. fig6, table3); see -list")
		all    = flag.Bool("all", false, "run every experiment")
		list   = flag.Bool("list", false, "list experiment ids")
		scale  = flag.String("scale", "quick", "measurement scale: quick (11k packets) or paper (110k)")
		seed   = flag.Int64("seed", 1, "base random seed")
		csvDir = flag.String("csv", "", "also write <id>.csv files into this directory")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	var sc manetsim.Scale
	switch strings.ToLower(*scale) {
	case "quick":
		sc = manetsim.QuickScale
	case "paper":
		sc = manetsim.PaperScale
	case "bench":
		sc = manetsim.BenchScale
	default:
		fatalf("unknown scale %q (quick, paper, bench)", *scale)
	}
	sc.Seed = *seed

	var ids []string
	switch {
	case *all:
		ids = exp.IDs()
	case *id != "":
		ids = []string{*id}
	default:
		fatalf("need -id or -all (use -list for available ids)")
	}

	camp := manetsim.NewCampaign(sc)
	for _, eid := range ids {
		runner, ok := exp.Lookup(eid)
		if !ok {
			fatalf("unknown experiment %q (use -list)", eid)
		}
		start := time.Now()
		fig, err := runner(camp)
		if err != nil {
			fatalf("%s: %v", eid, err)
		}
		if err := fig.Render(os.Stdout); err != nil {
			fatalf("%s: render: %v", eid, err)
		}
		fmt.Printf("[%s done in %v at %s scale]\n\n", eid, time.Since(start).Round(time.Millisecond), sc.Name)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatalf("%v", err)
			}
			path := filepath.Join(*csvDir, eid+".csv")
			f, err := os.Create(path)
			if err != nil {
				fatalf("%v", err)
			}
			if err := fig.CSV(f); err != nil {
				fatalf("%s: csv: %v", eid, err)
			}
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperexp: "+format+"\n", args...)
	os.Exit(2)
}
