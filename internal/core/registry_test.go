package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"manetsim/internal/fault"
	"manetsim/internal/linkmodel"
	"manetsim/internal/tcp"
)

// panicMessage runs fn and returns what it panicked with ("" if it
// returned normally).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}

// checkRegistry is the one body all three registries are held to: they
// are instantiations of the same generic type, so each must panic,
// resolve, list and fail the same way, differing only in the kind word.
// register is the kind's exported Register function (valid selects a
// usable or a nil factory) and list its exported listing. Every
// registration attempted here is one that must be refused, so the
// process-wide registries other tests enumerate stay untouched.
func checkRegistry[E any](t *testing.T, r *registry[E], builtins []string, alias, aliasOf string,
	register func(name string, valid bool), list func() []string) {
	for _, tc := range []struct {
		what, want string
		fn         func()
	}{
		{"empty name", "core: empty " + r.kind + " name", func() { register("", true) }},
		{"nil factory", "core: nil " + r.kind + " factory", func() { register("never-registered", false) }},
		{"duplicate name", fmt.Sprintf("core: %s %q registered twice", r.kind, builtins[0]),
			func() { register(strings.ToUpper(builtins[0]), true) }},
		// A colliding alias refuses the whole registration: the new
		// canonical name must neither resolve nor list afterwards.
		{"duplicate alias", fmt.Sprintf("core: %s %q registered twice", r.kind, strings.ToLower(alias)),
			func() { r.add(new(E), "half-registered", alias) }},
	} {
		if got := panicMessage(tc.fn); got != tc.want {
			t.Errorf("%s: panic %q, want %q", tc.what, got, tc.want)
		}
	}
	if _, err := r.lookup("half-registered"); err == nil {
		t.Error("refused registration left its canonical name resolvable")
	}

	byAlias, err := r.lookup(alias)
	if canon, _ := r.lookup(aliasOf); err != nil || byAlias != canon {
		t.Errorf("lookup(%q) = %p, %v; want the %q entry %p", alias, byAlias, err, aliasOf, canon)
	}

	names := list()
	if !sort.StringsAreSorted(names) {
		t.Errorf("listing not sorted: %v", names)
	}
	for _, b := range builtins {
		if !slices.Contains(names, b) {
			t.Errorf("built-in %q not listed in %v", b, names)
		}
	}
	if slices.Contains(names, "half-registered") {
		t.Error("refused registration is listed")
	}
	want := fmt.Sprintf("core: unknown %s %q (registered: %s)", r.kind, "Fog", strings.Join(names, ", "))
	if _, err := r.lookup("Fog"); err == nil || err.Error() != want {
		t.Errorf("unknown name: error %v, want %s", err, want)
	}
}

func TestRegistries(t *testing.T) {
	t.Run("transport", func(t *testing.T) {
		checkRegistry(t, transports,
			[]string{"newreno", "pacedudp", "pacing", "reno", "tahoe", "vegas", "westwood"}, "AdaptivePacing", "pacing",
			func(name string, valid bool) {
				var f CCFactory
				if valid {
					f = func(TransportSpec) (tcp.CongestionControl, error) { return tcp.NewRenoCC1990(), nil }
				}
				RegisterCC(name, f)
			},
			func() (names []string) {
				for _, info := range Transports() {
					names = append(names, info.Name)
				}
				return names
			})
	})
	t.Run("link model", func(t *testing.T) {
		checkRegistry(t, linkModels,
			[]string{"ber", "distance", "gilbert-elliott", "perfect", "uniform"}, "GE", "gilbert-elliott",
			func(name string, valid bool) {
				var f LinkModelFactory
				if valid {
					f = func(LinkModelSpec) (linkmodel.Model, error) { return linkmodel.Perfect{}, nil }
				}
				RegisterLinkModel(name, f)
			},
			func() (names []string) {
				for _, info := range LinkModels() {
					names = append(names, info.Name)
				}
				return names
			})
	})
	t.Run("fault", func(t *testing.T) {
		checkRegistry(t, faults,
			[]string{"blackout", "crash", "partition"}, "NodeCrash", "crash",
			func(name string, valid bool) {
				var f FaultFactory
				if valid {
					f = func(FaultSpec) (fault.Fault, error) { return fault.NodeCrash{}, nil }
				}
				RegisterFault(name, f)
			},
			func() (names []string) {
				for _, info := range Faults() {
					names = append(names, info.Name)
				}
				return names
			})
	})
}
