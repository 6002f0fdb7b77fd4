package repro

// Tests for the scenario facade: the preset registry is reachable through
// the public surface and an applied scenario perturbs a System's fabric
// without breaking the unified Algorithm flow.

import (
	"slices"
	"testing"
)

func TestScenarioFacade(t *testing.T) {
	names := Scenarios()
	if len(names) < 6 {
		t.Fatalf("Scenarios() lists %d presets, want >= 6: %v", len(names), names)
	}
	if !slices.Contains(names, "quiet") || !slices.Contains(names, "tenant-50load") {
		t.Fatalf("Scenarios() = %v, missing core presets", names)
	}
	if _, err := NewScenario("definitely-not-registered"); err == nil {
		t.Fatal("unknown scenario did not error")
	}

	quietRun := func(name string) int64 {
		sys := newTestSystem(t)
		sc, err := NewScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		act := sys.ApplyScenario(sc, 5)
		alg, err := NewAlgorithm(sys, "ring-allgather", AlgorithmOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		if err := alg.(Starter).Start(Op{Kind: Allgather, Bytes: 256 << 10},
			func(r *Result) { res = r; act.Stop() }); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if res == nil {
			t.Fatalf("allgather under %q did not complete", name)
		}
		if name != "quiet" && act.Stats().BackgroundBytes == 0 {
			t.Fatalf("%q injected no background traffic", name)
		}
		return int64(res.Duration())
	}
	quiet, tenant := quietRun("quiet"), quietRun("tenant-50load")
	if tenant <= quiet {
		t.Fatalf("tenant load did not slow the collective: %d ns vs quiet %d ns", tenant, quiet)
	}
}
