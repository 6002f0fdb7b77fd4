package command

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/manifest"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// shardsNotice is printed, once per invocation, when -shards or a
// manifest's "shards" asks for more than one engine shard. Both are still
// accepted so existing scripts and manifests keep working.
const shardsNotice = "repro: -shards is ignored; the engine is serial, use -workers"

// common is the flag surface shared by every subcommand that executes a
// plan: output targets, pool sizing, telemetry, and diagnostics.
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

// register adds the shared flags to a subcommand's FlagSet. The
// workers default differs per caller (-1 on `run` means "use the
// manifest's value"; 0 on the shims is the historical GOMAXPROCS
// default).
func (c *common) register(fs *flag.FlagSet, workersDefault int) {
	fs.StringVar(&c.jsonPath, "json", "", "write sweep records as JSON to this path")
	fs.StringVar(&c.csvPath, "csv", "", "write sweep records as CSV to this path")
	fs.IntVar(&c.workers, "workers", workersDefault, "sweep worker goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&c.shards, "shards", 1, "ignored: the engine is serial (accepted for compatibility; use -workers)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write an allocation profile of the run to this file")
	fs.BoolVar(&c.telemetry, "telemetry", false, "collect the deterministic metrics registry during the sweep")
	fs.StringVar(&c.metricsPath, "metrics", "", "write canonical telemetry metrics.json to this path (implies -telemetry)")
	fs.StringVar(&c.perfettoPath, "perfetto", "", "write a Perfetto/Chrome trace of the representative run to this path (implies -telemetry)")
}

// validate is the shared exit-code-2 gate for the common flags. A
// workers value of -1 is the `run` sentinel for "defer to the manifest"
// and passes.
func (c *common) validate() []error {
	checks := []error{
		cli.Positive("shards", c.shards),
		cli.Writable("json", c.jsonPath),
		cli.Writable("csv", c.csvPath),
		cli.Writable("cpuprofile", c.cpuprofile),
		cli.Writable("memprofile", c.memprofile),
		cli.Writable("metrics", c.metricsPath),
		cli.Writable("perfetto", c.perfettoPath),
	}
	if c.workers != -1 {
		checks = append(checks, cli.NonNegative("workers", c.workers))
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

// execute is the single run path behind `repro run` and all seven shims:
// compile the manifest (telemetry included — the common flags were folded
// into it), run the plan, persist/compare/verify the report, and
// optionally write a protocol trace. Exit codes follow the repository
// convention (2 invalid spec, 1 runtime failure).
func execute(cmd string, m manifest.Manifest, diag diagnostics, stdout, stderr io.Writer) int {
	plan, err := manifest.Compile(m)
	if err != nil {
		return fail(stderr, 2, "%s: %v", cmd, err)
	}
	needTrace := diag.trace != "" || (m.Telemetry != nil && m.Telemetry.Perfetto != "")
	if needTrace && plan.Trace == nil {
		return fail(stderr, 2, "%s: kind %s has no traceable point", cmd, m.Kind)
	}
	stop, err := cli.StartCPUProfile(diag.cpuprofile)
	if err != nil {
		return fail(stderr, 2, "%s: %v", cmd, err)
	}
	defer stop()
	rep, err := plan.Execute(m.Workers, stdout)
	if err != nil {
		return fail(stderr, 1, "%s: %v", cmd, err)
	}
	if err := cli.WriteAllocProfile(diag.memprofile); err != nil {
		return fail(stderr, 1, "%s: %v", cmd, err)
	}

	// One canonical encoding feeds the file, the digest check and the
	// baseline diff, so they can never disagree about the bytes.
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, rep); err != nil {
		return fail(stderr, 1, "%s: %v", cmd, err)
	}
	if m.Output.JSON != "" {
		if err := os.WriteFile(m.Output.JSON, buf.Bytes(), 0o644); err != nil {
			return fail(stderr, 1, "%s: %v", cmd, err)
		}
	}
	if m.Output.CSV != "" {
		f, err := os.Create(m.Output.CSV)
		if err != nil {
			return fail(stderr, 1, "%s: %v", cmd, err)
		}
		if err := sweep.WriteCSV(f, rep.Records); err != nil {
			f.Close()
			return fail(stderr, 1, "%s: %v", cmd, err)
		}
		if err := f.Close(); err != nil {
			return fail(stderr, 1, "%s: %v", cmd, err)
		}
	}

	// The text timeline and the Perfetto export come from one traced run, so
	// the two renderings can never describe different executions.
	if needTrace {
		bundle, err := plan.Trace()
		if err != nil {
			return fail(stderr, 1, "%s: trace: %v", cmd, err)
		}
		if diag.trace != "" {
			if err := os.WriteFile(diag.trace, []byte(bundle.Timeline()), 0o644); err != nil {
				return fail(stderr, 1, "%s: trace: %v", cmd, err)
			}
		}
		if m.Telemetry != nil && m.Telemetry.Perfetto != "" {
			f, err := os.Create(m.Telemetry.Perfetto)
			if err != nil {
				return fail(stderr, 1, "%s: perfetto: %v", cmd, err)
			}
			if err := bundle.WritePerfetto(f); err != nil {
				f.Close()
				return fail(stderr, 1, "%s: perfetto: %v", cmd, err)
			}
			if err := f.Close(); err != nil {
				return fail(stderr, 1, "%s: perfetto: %v", cmd, err)
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
		if err := os.WriteFile(m.Telemetry.Metrics, enc, 0o644); err != nil {
			return fail(stderr, 1, "%s: metrics: %v", cmd, err)
		}
		if m.Telemetry.Expect != "" {
			sum := sha256.Sum256(enc)
			got := hex.EncodeToString(sum[:])
			if got != m.Telemetry.Expect {
				return fail(stderr, 1, "%s: metrics digest %s does not match telemetry.expect_sha256 %s", cmd, got, m.Telemetry.Expect)
			}
			fmt.Fprintf(stdout, "# metrics digest matches telemetry.expect_sha256\n")
		}
	}

	if m.Expect != nil {
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if got != m.Expect.SHA256 {
			return fail(stderr, 1, "%s: output digest %s does not match expect.sha256 %s", cmd, got, m.Expect.SHA256)
		}
		fmt.Fprintf(stdout, "# output digest matches expect.sha256\n")
	}

	if m.Baseline != nil {
		base, err := sweep.LoadFile(m.Baseline.Path)
		if err != nil {
			return fail(stderr, 1, "%s: %v", cmd, err)
		}
		tol := m.Baseline.Tolerance
		if tol == 0 {
			tol = 0.05
		}
		deltas := sweep.Compare(base, rep, tol)
		fmt.Fprintf(stdout, "# vs %s (tol %.0f%%):\n", m.Baseline.Path, tol*100)
		if err := sweep.WriteDeltas(stdout, deltas); err != nil {
			return fail(stderr, 1, "%s: %v", cmd, err)
		}
		if len(deltas) > 0 {
			return 1
		}
	}
	return 0
}
