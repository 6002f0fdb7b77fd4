package command

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"

	"repro/internal/manifest"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// shardsNotice is printed, once per invocation, when -shards or a
// manifest's "shards" asks for more than one engine shard. Both are still
// accepted so existing scripts and manifests keep working.
const shardsNotice = "repro: -shards is ignored; the engine is serial, use -workers"

// common is the flag surface `repro run` folds into every manifest it
// executes: output targets, pool sizing, telemetry, and diagnostics.
type common struct {
	jsonPath     string
	csvPath      string
	workers      int
	shards       int
	shardsNoted  bool // shardsNotice already printed
	cpuprofile   string
	memprofile   string
	telemetry    bool
	metricsPath  string
	perfettoPath string
}

// register adds the flags to fs. The workers default -1 means "use the
// manifest's value".
func (c *common) register(fs *flag.FlagSet) {
	fs.StringVar(&c.jsonPath, "json", "", "write sweep records as JSON to this path")
	fs.StringVar(&c.csvPath, "csv", "", "write sweep records as CSV to this path")
	fs.IntVar(&c.workers, "workers", -1, "sweep worker goroutines (0 = GOMAXPROCS; default: the manifest's workers)")
	fs.IntVar(&c.shards, "shards", 1, "ignored: the engine is serial (accepted for compatibility; use -workers)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write an allocation profile of the run to this file")
	fs.BoolVar(&c.telemetry, "telemetry", false, "collect the deterministic metrics registry during the sweep")
	fs.StringVar(&c.metricsPath, "metrics", "", "write canonical telemetry metrics.json to this path (implies -telemetry)")
	fs.StringVar(&c.perfettoPath, "perfetto", "", "write a Perfetto/Chrome trace of the representative run to this path (implies -telemetry)")
}

// validate is the exit-code-2 gate for the common flags. A workers value
// of -1 is the sentinel for "defer to the manifest" and passes.
func (c *common) validate() []error {
	checks := []error{
		Positive("shards", c.shards),
		Writable("json", c.jsonPath),
		Writable("csv", c.csvPath),
		Writable("cpuprofile", c.cpuprofile),
		Writable("memprofile", c.memprofile),
		Writable("metrics", c.metricsPath),
		Writable("perfetto", c.perfettoPath),
	}
	if c.workers != -1 {
		checks = append(checks, NonNegative("workers", c.workers))
	}
	return checks
}

// apply folds the common flags into the manifest, printing shardsNotice
// to stderr the first time the flag or a manifest asks for shards.
func (c *common) apply(m *manifest.Manifest, stderr io.Writer) {
	if c.jsonPath != "" {
		m.Output.JSON = c.jsonPath
	}
	if c.csvPath != "" {
		m.Output.CSV = c.csvPath
	}
	if c.workers >= 0 {
		m.Workers = c.workers
	}
	if (c.shards > 1 || m.Shards > 1) && !c.shardsNoted {
		fmt.Fprintln(stderr, shardsNotice)
		c.shardsNoted = true
	}
	if c.telemetry || c.metricsPath != "" || c.perfettoPath != "" {
		if m.Telemetry == nil {
			m.Telemetry = &manifest.TelemetrySpec{}
		}
		if c.metricsPath != "" {
			m.Telemetry.Metrics = c.metricsPath
		}
		if c.perfettoPath != "" {
			m.Telemetry.Perfetto = c.perfettoPath
		}
	}
}

// parseFlags runs fs over args, mapping a parse failure to exit code 2.
// The -1 return means "continue".
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) int {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return -1
}

// fail prints a subcommand error and returns the given code.
func fail(stderr io.Writer, code int, format string, args ...interface{}) int {
	fmt.Fprintf(stderr, format+"\n", args...)
	return code
}

// diagnostics carries the run-scoped paths that never belong in a
// manifest document: the protocol-trace destination and the CPU and
// allocation profiles.
type diagnostics struct {
	trace      string
	cpuprofile string
	memprofile string
}

// diag pairs a subcommand's -trace path with the common profile flags.
func (c *common) diag(trace string) diagnostics {
	return diagnostics{trace: trace, cpuprofile: c.cpuprofile, memprofile: c.memprofile}
}

// execute is the run path behind `repro run`, once per manifest: compile
// the manifest (telemetry included — the common flags were folded into
// it), run the plan, persist/compare/verify the report, and optionally
// write a protocol trace. Exit codes follow the repository convention (2
// invalid spec, 1 runtime failure).
func execute(m manifest.Manifest, diag diagnostics, stdout, stderr io.Writer) int {
	plan, err := manifest.Compile(m)
	if err != nil {
		return fail(stderr, 2, "run: %v", err)
	}
	needTrace := diag.trace != "" || (m.Telemetry != nil && m.Telemetry.Perfetto != "")
	if needTrace && plan.Trace == nil {
		return fail(stderr, 2, "run: kind %s has no traceable point", m.Kind)
	}
	// Load the baseline before the run writes anything: -compare may name
	// the run's own -json output, which is about to be rewritten.
	var base sweep.Report
	if m.Baseline != nil {
		if base, err = sweep.LoadFile(m.Baseline.Path); err != nil {
			return fail(stderr, 1, "run: %v", err)
		}
	}
	stop, err := StartCPUProfile(diag.cpuprofile)
	if err != nil {
		return fail(stderr, 2, "run: %v", err)
	}
	defer stop()
	rep, err := plan.Execute(m.Workers, stdout)
	if err != nil {
		return fail(stderr, 1, "run: %v", err)
	}
	if err := WriteAllocProfile(diag.memprofile); err != nil {
		return fail(stderr, 1, "run: %v", err)
	}

	// One canonical encoding feeds the file, the digest check and the
	// baseline diff, so they can never disagree about the bytes.
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, rep); err != nil {
		return fail(stderr, 1, "run: %v", err)
	}
	if m.Output.JSON != "" {
		if err := writeFile(m.Output.JSON, buf.Bytes()); err != nil {
			return fail(stderr, 1, "run: %v", err)
		}
	}
	if m.Output.CSV != "" {
		err := writeOutput(m.Output.CSV, func(w io.Writer) error { return sweep.WriteCSV(w, rep.Records) })
		if err != nil {
			return fail(stderr, 1, "run: %v", err)
		}
	}

	// The text timeline and the Perfetto export come from one traced run, so
	// the two renderings can never describe different executions.
	if needTrace {
		bundle, err := plan.Trace()
		if err != nil {
			return fail(stderr, 1, "run: trace: %v", err)
		}
		if diag.trace != "" {
			if err := writeFile(diag.trace, []byte(bundle.Timeline())); err != nil {
				return fail(stderr, 1, "run: trace: %v", err)
			}
		}
		if m.Telemetry != nil && m.Telemetry.Perfetto != "" {
			if err := writeOutput(m.Telemetry.Perfetto, bundle.WritePerfetto); err != nil {
				return fail(stderr, 1, "run: perfetto: %v", err)
			}
		}
	}

	if m.Telemetry != nil && m.Telemetry.Metrics != "" {
		doc := telemetry.Document{Name: rep.Name}
		for i := range rep.Records {
			rec := &rep.Records[i]
			if rec.Telemetry == nil {
				continue
			}
			doc.Points = append(doc.Points, telemetry.Point{
				Key:     rec.Spec.Key(),
				Metrics: rec.Telemetry.Metrics,
			})
		}
		enc := doc.Encode()
		if err := writeFile(m.Telemetry.Metrics, enc); err != nil {
			return fail(stderr, 1, "run: metrics: %v", err)
		}
		if m.Telemetry.Expect != "" {
			sum := sha256.Sum256(enc)
			got := hex.EncodeToString(sum[:])
			if got != m.Telemetry.Expect {
				return fail(stderr, 1, "run: metrics digest %s does not match telemetry.expect_sha256 %s", got, m.Telemetry.Expect)
			}
			fmt.Fprintf(stdout, "# metrics digest matches telemetry.expect_sha256\n")
		}
	}

	if m.Expect != nil {
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if got != m.Expect.SHA256 {
			return fail(stderr, 1, "run: output digest %s does not match expect.sha256 %s", got, m.Expect.SHA256)
		}
		fmt.Fprintf(stdout, "# output digest matches expect.sha256\n")
	}

	if m.Baseline != nil {
		// A manifest without baseline.tolerance compares at 5%; -tol has
		// already been checked to be > 0 before it replaced the field.
		tol := m.Baseline.Tolerance
		if tol == 0 {
			tol = 0.05
		}
		deltas := sweep.Compare(base, rep, tol)
		fmt.Fprintf(stdout, "# vs %s (tol %g%%):\n", m.Baseline.Path, tol*100)
		if err := sweep.WriteDeltas(stdout, deltas); err != nil {
			return fail(stderr, 1, "run: %v", err)
		}
		if len(deltas) > 0 {
			return 1
		}
	}
	return 0
}
