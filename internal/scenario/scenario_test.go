package scenario

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/topology"
)

// goldenQuiet is the registry golden for mcast-allgather (16 hosts,
// HostsPerLeaf 4, seed 3, 1 MiB, UD, 4 subgroups): installing the quiet
// scenario must reproduce it exactly, proving the identity path does not
// move a single event.
const goldenQuiet = 722976 // ns

// goldenTenant50 pins the same operation under tenant-50load with
// install seed 3: background flows on every host link stretch the
// collective. The value is a determinism anchor like the registry goldens —
// any change to event ordering, RNG stream derivation, or the background
// injection path will move it.
const goldenTenant50 = 1471964 // ns

// runAllgather runs one 16-host mcast-allgather (the registry-golden
// geometry) with the named scenario installed; name "" skips installation
// entirely (not even quiet).
func runAllgather(t *testing.T, name string, bytes int, seed uint64) (*collective.Result, *Active, *fabric.Fabric) {
	t.Helper()
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 16, HostsPerLeaf: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(3)
	f := fabric.New(eng, g, fabric.Config{})
	alg, err := registry.New(cluster.New(f, cluster.Config{}), "mcast-allgather", registry.Options{
		Core: core.Config{Subgroups: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var act *Active
	if name != "" {
		sc, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		act = sc.Install(f, seed)
	}
	var res *collective.Result
	err = alg.Start(collective.Op{Kind: collective.Allgather, Bytes: bytes},
		func(r *collective.Result) {
			res = r
			if act != nil {
				act.Stop()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res == nil {
		t.Fatalf("allgather under %q did not complete", name)
	}
	return res, act, f
}

func resultJSON(t *testing.T, res *collective.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry lists %d scenarios, want >= 6: %v", len(names), names)
	}
	for _, want := range []string{"quiet", "flap-spine", "straggler-1pct", "tenant-50load"} {
		if !slices.Contains(names, want) {
			t.Fatalf("registry %v is missing %q", names, want)
		}
	}
	if !slices.IsSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	if _, err := New("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario did not error")
	}
	sc, err := New("")
	if err != nil || len(sc.Injectors) != 0 {
		t.Fatalf("New(\"\") = (%d injectors, %v), want the quiet alias", len(sc.Injectors), err)
	}
}

// TestQuietIsIdentity is the acceptance check for the identity path:
// installing the quiet scenario produces a byte-identical Result to not
// installing anything, and both match the registry golden duration.
func TestQuietIsIdentity(t *testing.T) {
	bare, _, _ := runAllgather(t, "", 1<<20, 0)
	quiet, act, f := runAllgather(t, Quiet, 1<<20, 99)
	if a, b := resultJSON(t, bare), resultJSON(t, quiet); !slices.Equal(a, b) {
		t.Fatalf("quiet scenario changed the result:\nbare:  %s\nquiet: %s", a, b)
	}
	if got := int64(quiet.Duration()); got != goldenQuiet {
		t.Errorf("quiet duration = %d ns, want golden %d ns", got, goldenQuiet)
	}
	if s := act.Stats(); s != (Stats{}) {
		t.Fatalf("quiet scenario reported activity: %+v", s)
	}
	if f.BackgroundBytes != 0 {
		t.Fatalf("quiet scenario injected %d background bytes", f.BackgroundBytes)
	}
}

// TestTenantGoldenDeterminism pins one non-quiet scenario the way the
// registry pins its algorithms: the same (scenario, seed) must reproduce
// the exact same virtual duration, run after run, and slow the collective
// relative to quiet.
func TestTenantGoldenDeterminism(t *testing.T) {
	res, act, f := runAllgather(t, "tenant-50load", 1<<20, 3)
	if got := int64(res.Duration()); got != goldenTenant50 {
		t.Errorf("tenant-50load duration = %d ns, want golden %d ns", got, goldenTenant50)
	}
	if int64(res.Duration()) <= goldenQuiet {
		t.Fatalf("tenant load did not slow the collective: %v", res.Duration())
	}
	s := act.Stats()
	if s.BackgroundBytes == 0 {
		t.Fatalf("no background traffic recorded: %+v", s)
	}
	if f.BackgroundBytes != s.BackgroundBytes {
		t.Fatalf("stats/fabric disagree on background bytes: %d vs %d",
			s.BackgroundBytes, f.BackgroundBytes)
	}
	// Same seed, fresh simulation: byte-identical result.
	again, _, _ := runAllgather(t, "tenant-50load", 1<<20, 3)
	if a, b := resultJSON(t, res), resultJSON(t, again); !slices.Equal(a, b) {
		t.Fatal("tenant-50load is not deterministic for a fixed seed")
	}
}

// TestFlapDropsAndRestores drives a flap injector directly on a tiny star
// fabric: during the outage every traversal drops; after restore the link
// delivers again; Stop cancels the re-arming cycle so the engine drains.
func TestFlapDropsAndRestores(t *testing.T) {
	eng := sim.NewEngine(1)
	g := topology.Star(2)
	f := fabric.New(eng, g, fabric.Config{})
	hosts := g.Hosts()
	nic0, nic1 := f.AttachNIC(hosts[0]), f.AttachNIC(hosts[1])
	delivered := 0
	nic1.Deliver = func(p *fabric.Packet) { delivered++ }

	sc := Scenario{Injectors: []Injector{
		LinkFlap{Select: RandomSpine, Start: 0, Period: 100 * sim.Microsecond, Down: 50 * sim.Microsecond},
	}}
	act := sc.Install(f, 7)

	// The hub's channels are down from t=0 to t=50µs.
	eng.RunUntil(10 * sim.Microsecond)
	nic0.Inject(&fabric.Packet{Dst: hosts[1], Group: fabric.NoGroup, PayloadBytes: 1024})
	eng.RunUntil(40 * sim.Microsecond)
	if delivered != 0 || f.TotalDropped == 0 {
		t.Fatalf("packet crossed a downed link: delivered=%d dropped=%d", delivered, f.TotalDropped)
	}
	// After the restore at 50µs the link carries traffic again.
	eng.RunUntil(60 * sim.Microsecond)
	nic0.Inject(&fabric.Packet{Dst: hosts[1], Group: fabric.NoGroup, PayloadBytes: 1024})
	eng.RunUntil(90 * sim.Microsecond)
	if delivered != 1 {
		t.Fatalf("restored link delivered %d packets, want 1", delivered)
	}
	s := act.Stats()
	if s.Perturbs < 1 || s.Restores < 1 {
		t.Fatalf("flap stats %+v, want at least one perturb and restore", s)
	}
	// Without Stop the flap re-arms forever; with it the queue drains.
	act.Stop()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop", eng.Pending())
	}
}

// TestEveryPresetCompletes runs each registered scenario against a small
// collective: none may deadlock it, and all must stay deterministic enough
// to finish on a drained engine after Stop.
func TestEveryPresetCompletes(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, _, _ := runAllgather(t, name, 64<<10, 11)
			if res.Ranks != 16 {
				t.Fatalf("Ranks = %d, want 16", res.Ranks)
			}
			if res.Duration() <= 0 {
				t.Fatalf("Duration = %v", res.Duration())
			}
		})
	}
}
