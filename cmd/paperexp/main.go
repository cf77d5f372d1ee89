// Command paperexp regenerates the tables and figures of the paper's
// evaluation section (DSN 2005). The selected experiments run at once on
// one campaign, so runs they share execute once and no core idles while
// work is left; figures print in id order as they complete.
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
		scale  = flag.String("scale", "quick", "measurement scale: bench (2.2k packets), quick (11k) or paper (110k)")
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

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	start := time.Now()
	err := exp.Run(manetsim.NewCampaign(sc), ids, func(fig *exp.Figure) error {
		if err := fig.Render(os.Stdout); err != nil {
			return fmt.Errorf("%s: render: %w", fig.ID, err)
		}
		fmt.Printf("[%s ready after %v at %s scale]\n\n", fig.ID, time.Since(start).Round(time.Millisecond), sc.Name)
		if *csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*csvDir, fig.ID+".csv"))
		if err != nil {
			return err
		}
		if err := fig.CSV(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: csv: %w", fig.ID, err)
		}
		return f.Close()
	})
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperexp: "+format+"\n", args...)
	os.Exit(2)
}
