// Package exp regenerates every table and figure of the paper's evaluation
// section, plus the extension experiments. Each runner lays its runs out
// as a series × x-axis grid, executes the grid in one RunAll on the
// manetsim.Campaign it is handed (runGrid), and renders the series the
// paper plots; the paced-UDP figures first search each point's optimal
// gap. The execution machinery — result cache, bounded parallelism,
// scales, the optimal-UDP-gap search — is that campaign's; this package
// adds only the figure definitions. Runners sharing one campaign share
// its cache, so figures that overlap (Figures 6-9 plot different metrics
// of the same runs) pay for each simulation once, and Run executes any
// set of runners at once on one campaign without changing a figure.
package exp

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"manetsim"
	"manetsim/internal/core"
)

// variant is one labelled transport: a series of most figures.
type variant struct {
	name string
	t    core.TransportSpec
}

// headlineVariants are the paper's headline pair with and without ACK
// thinning: the series of the grid, random-topology and mobility
// experiments and the first bar groups of Figures 11-14.
var headlineVariants = []variant{
	{"Vegas", core.TransportSpec{Name: "vegas", Alpha: 2}},
	{"NewReno", core.TransportSpec{Name: "newreno"}},
	{"Vegas Thin", core.TransportSpec{Name: "vegas", Alpha: 2, AckThinning: true}},
	{"NewReno Thin", core.TransportSpec{Name: "newreno", AckThinning: true}},
}

// nameOf names addSeries' series s after vs[s].
func nameOf(vs []variant) func(s int) string {
	return func(s int) string { return vs[s].name }
}

// runGrid runs the config cfg(s, x) of every series s < ns and x-axis
// point x < nx in one RunAll and returns the results indexed [s][x].
func runGrid(c *manetsim.Campaign, ns, nx int, cfg func(s, x int) core.Config) ([][]*core.Result, error) {
	cfgs := make([]core.Config, 0, ns*nx)
	for s := 0; s < ns; s++ {
		for x := 0; x < nx; x++ {
			cfgs = append(cfgs, cfg(s, x))
		}
	}
	flat, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		return nil, err
	}
	grid := make([][]*core.Result, ns)
	for s := range grid {
		grid[s] = flat[s*nx : (s+1)*nx]
	}
	return grid, nil
}

// addSeries appends one series per row of a runGrid result to f: series
// s is named name(s), and its result r at x-axis point x plots as
// point(s, x, r). point is called row by row, so notes it appends to f
// come out in series order.
func addSeries(f *Figure, results [][]*core.Result, name func(s int) string, point func(s, x int, r *core.Result) Point) {
	for s, row := range results {
		ser := Series{Name: name(s)}
		for x, r := range row {
			ser.Points = append(ser.Points, point(s, x, r))
		}
		f.Series = append(f.Series, ser)
	}
}

// IDs returns the registered experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Lookup returns the runner for an experiment id (e.g. "fig6", "table3").
func Lookup(id string) (func(c *manetsim.Campaign) (*Figure, error), bool) {
	fn, ok := registry[id]
	return fn, ok
}

// Run starts every experiment in ids at once on c and hands each figure to
// emit in the order of ids, as soon as it and every figure before it are
// done. The runners share c's cache and worker bound, and a run's result
// is fixed by its config, so running them together changes no figure.
// The first id in order whose runner fails, or an emit error, ends the
// emitting; Run returns that error once every runner has returned.
func Run(c *manetsim.Campaign, ids []string, emit func(*Figure) error) error {
	type outcome struct {
		fig *Figure
		err error
	}
	outs := make([]chan outcome, len(ids))
	for i, id := range ids {
		if _, ok := registry[id]; !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		outs[i] = make(chan outcome, 1)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fig, err := registry[id](c)
			outs[i] <- outcome{fig, err}
		}()
	}
	for i, out := range outs {
		o := <-out
		if o.err != nil {
			return fmt.Errorf("%s: %w", ids[i], o.err)
		}
		if err := emit(o.fig); err != nil {
			return err
		}
	}
	return nil
}

var registry = map[string]func(c *manetsim.Campaign) (*Figure, error){
	"table2":       Table2,
	"fig2":         Fig2,
	"fig3":         Fig3,
	"fig4":         Fig4,
	"fig5":         Fig5,
	"fig6":         Fig6,
	"fig7":         Fig7,
	"fig8":         Fig8,
	"fig9":         Fig9,
	"fig10":        Fig10,
	"fig11":        Fig11,
	"fig12":        Fig12,
	"fig13":        Fig13,
	"fig14":        Fig14,
	"fig16":        Fig16,
	"fig17":        Fig17,
	"table3":       Table3,
	"fig18":        Fig18,
	"fig19":        Fig19,
	"table4":       Table4,
	"energy":       Energy,
	"ablation":     Ablation,
	"tcpvariants":  TCPVariants,
	"transports":   Transports,
	"ccextensions": CCExtensions,
	"coexist":      Coexist,
	"lossy":        Lossy,
	"chaos":        Chaos,
	"latency":      Latency,
	"optwindow":    OptWindow,
	"mobility":     Mobility,
}
