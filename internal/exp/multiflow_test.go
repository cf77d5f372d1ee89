package exp

import (
	"testing"

	"manetsim"
)

// TestTable3FairnessOrdering regenerates the grid fairness table at bench
// scale and pins the paper's headline: Vegas with ACK thinning is the
// fairest variant at 11 Mbit/s.
func TestTable3FairnessOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep is slow")
	}
	camp := manetsim.NewCampaign(manetsim.BenchScale)
	f, err := Table3(camp)
	if err != nil {
		t.Fatal(err)
	}
	get := func(series, x string) float64 {
		for _, s := range f.Series {
			if s.Name != series {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					return p.Y
				}
			}
		}
		t.Fatalf("missing %s@%s", series, x)
		return 0
	}
	vthin := get("Vegas Thin", "11")
	for _, other := range []string{"Vegas", "NewReno", "NewReno Thin"} {
		if v := get(other, "11"); vthin <= v {
			t.Errorf("Vegas Thin fairness %.3f <= %s %.3f at 11 Mbit/s; paper's headline violated", vthin, other, v)
		}
	}
	// All Jain values must be valid indices over 6 flows.
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Y < 1.0/6-1e-9 || p.Y > 1+1e-9 {
				t.Errorf("%s@%s: Jain = %v out of [1/6, 1]", s.Name, p.X, p.Y)
			}
		}
	}
}

// TestCoexistNewRenoDominates pins the extension result: loss-based
// NewReno crowds out delay-based Vegas on the shared grid.
func TestCoexistNewRenoDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep is slow")
	}
	camp := manetsim.NewCampaign(manetsim.BenchScale)
	f, err := Coexist(camp)
	if err != nil {
		t.Fatal(err)
	}
	var vegas, newreno float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.X != "11" {
				continue
			}
			switch s.Name {
			case "Vegas group":
				vegas = p.Y
			case "NewReno group":
				newreno = p.Y
			}
		}
	}
	if newreno <= vegas {
		t.Errorf("NewReno group %.1f <= Vegas group %.1f; coexistence result inverted", newreno, vegas)
	}
}

// TestOptWindowPeaksSmall pins the "optimal window ≈ h/4" extension: the
// goodput-optimal bound is small (2-4) and beats the unbounded tail.
func TestOptWindowPeaksSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("window sweep is slow")
	}
	camp := manetsim.NewCampaign(manetsim.BenchScale)
	f, err := OptWindow(camp)
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Series[0].Points
	best, bestX := -1.0, ""
	var at16 float64
	for _, p := range pts {
		if p.Y > best {
			best, bestX = p.Y, p.X
		}
		if p.X == "16" {
			at16 = p.Y
		}
	}
	if bestX != "2" && bestX != "3" && bestX != "4" {
		t.Errorf("goodput peak at MaxWindow=%s, want 2-4 (h/4 rule)", bestX)
	}
	if best <= at16 {
		t.Errorf("peak %.1f <= unbounded-ish tail %.1f", best, at16)
	}
}
