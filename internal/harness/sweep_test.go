package harness

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sweep"
)

// encodeReport serializes records the way the -json flag does.
func encodeReport(t *testing.T, recs []sweep.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, sweep.Report{Name: "det", Records: recs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runSweep is the call manifest.Plan.Execute makes for one section: the
// specs through the kernel on the worker pool, then the section's
// post-annotation (nil for none).
func runSweep(t testing.TB, specs []sweep.Spec, workers int, k sweep.Func, post func([]sweep.Record)) []sweep.Record {
	t.Helper()
	recs, err := sweep.Run(specs, workers, k)
	if err != nil {
		t.Fatal(err)
	}
	if post != nil {
		post(recs)
	}
	return recs
}

// TestSweepJSONByteIdentical is the acceptance check for the sweep engine:
// running the same grid twice, at different worker counts, produces
// byte-identical JSON records — with real simulation kernels, not stubs.
func TestSweepJSONByteIdentical(t *testing.T) {
	specs := Fig13Specs([]int{1, 2})
	serial, err := sweep.Run(specs, 1, RxKernel(Env{}))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep.Run(specs, 8, RxKernel(Env{}))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := encodeReport(t, serial), encodeReport(t, parallel); !bytes.Equal(a, b) {
		t.Fatalf("rx sweep JSON differs between 1 and 8 workers:\n%s\n---\n%s", a, b)
	}
}

// TestCollectiveSweepDeterministic does the same over the registry-backed
// collective kernel, which carries the full unified Result (PerRank
// included) in every record.
func TestCollectiveSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two at-scale collective sweeps")
	}
	run := func(workers int) []byte {
		recs, err := sweep.Run(Fig11Specs(16, []int{64 << 10}), workers, CollKernel(Env{}))
		if err != nil {
			t.Fatal(err)
		}
		return encodeReport(t, recs)
	}
	if a, b := run(1), run(6); !bytes.Equal(a, b) {
		t.Fatal("collective sweep JSON differs between 1 and 6 workers")
	}
}

// TestCollKernelRejectsBadPoints covers worker-pool error propagation with
// the real kernel: an out-of-range point fails with a PointError while the
// rest of the grid still completes.
func TestCollKernelRejectsBadPoints(t *testing.T) {
	specs := sweep.Grid{
		Algorithms: []string{"mcast-allgather"},
		Nodes:      []int{4, 500}, // 500 exceeds the 188-node testbed
		MsgBytes:   []int{4096},
	}.Expand()
	_, err := sweep.Run(specs, 2, CollKernel(Env{}))
	if err == nil {
		t.Fatal("oversized node count did not error")
	}
	var pe *sweep.PointError
	if !errors.As(err, &pe) || pe.Spec.Nodes != 500 {
		t.Fatalf("error %v not attributed to the bad point", err)
	}
}
