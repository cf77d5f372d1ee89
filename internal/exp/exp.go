// Package exp regenerates every table and figure of the paper's evaluation
// section. Each runner builds the parameter sweep, executes the runs on the
// manetsim.Campaign it is handed, and renders the series the paper plots.
// The execution machinery — result cache, bounded parallelism, scales, the
// optimal-UDP-gap search — is that campaign's; this package adds only the
// figure definitions. Runners sharing one campaign share its cache, so
// figures that overlap (Figures 6-9 plot different metrics of the same
// runs) pay for each simulation once.
package exp

import (
	"sort"

	"manetsim"
)

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
