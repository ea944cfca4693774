package main

import (
	"testing"

	"gesp/internal/core"
	"gesp/internal/ordering"
	"gesp/internal/zsolver"
)

// The default ordering is decided in core.DefaultOptions and nowhere
// else: the complex driver and this command's -ordering flag follow it,
// and every Method's name is one the flag accepts.
func TestDefaultOrderingHasOneSource(t *testing.T) {
	want := core.DefaultOptions().Ordering
	if got := zsolver.DefaultOptions().Ordering; got != want {
		t.Errorf("zsolver default ordering %v, core default %v", got, want)
	}
	if got, ok := ordering.ParseMethod(defaultOrdering.String()); !ok || got != want {
		t.Errorf("-ordering default %q parses to %v (ok=%v), core default %v", defaultOrdering, got, ok, want)
	}
	names := ordering.MethodNames()
	for i, name := range names {
		m, ok := ordering.ParseMethod(name)
		if !ok || int(m) != i || m.String() != name {
			t.Errorf("method %d %q round-trips to %d %q (ok=%v)", i, name, int(m), m, ok)
		}
	}
	if _, ok := ordering.ParseMethod(ordering.Method(len(names)).String()); ok {
		t.Error(`"unknown" parsed as a method`)
	}
}
