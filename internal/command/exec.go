package command

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/manifest"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// common is the flag surface `repro run` folds into every manifest it
// executes: output targets, pool sizing, telemetry, and diagnostics.
type common struct {
	jsonPath     string
	workers      int
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
	fs.IntVar(&c.workers, "workers", -1, "sweep worker goroutines (0 = GOMAXPROCS; default: the manifest's workers)")
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
		Writable("json", c.jsonPath),
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

// apply folds the common flags into the manifest.
func (c *common) apply(m *manifest.Manifest) {
	if c.jsonPath != "" {
		m.Output.JSON = c.jsonPath
	}
	if c.workers >= 0 {
		m.Workers = c.workers
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

// shardsHint follows the flag package's error when a script still passes
// the removed -shards flag.
const shardsHint = "repro: -shards was removed: the engine is serial; use -workers"

// parseFlags runs fs over args, mapping a parse failure to exit code 2.
// The -1 return means "continue".
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) int {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if strings.HasSuffix(err.Error(), "not defined: -shards") {
			fmt.Fprintln(stderr, shardsHint)
		}
		return 2
	}
	return -1
}

// fail prints a subcommand error and returns the given code.
func fail(stderr io.Writer, code int, format string, args ...interface{}) int {
	fmt.Fprintf(stderr, format+"\n", args...)
	return code
}

// execute is the run path behind `repro run`, once per compiled manifest
// (telemetry included — the common flags were folded into it before
// compiling): run the plan, persist and verify the report, and
// optionally write a protocol trace to tracePath. Exit codes follow the
// repository convention (2 invalid spec, 1 runtime failure).
func execute(plan *manifest.Plan, tracePath string, stdout, stderr io.Writer) int {
	m := plan.Manifest
	// The outputs the manifest declares, as -o and the output flags left
	// them, must land in existing directories before anything is simulated.
	for _, o := range outputPaths(&m) {
		if err := writableDir(*o.path); err != nil {
			return fail(stderr, 2, "run: %s: %v", o.field, err)
		}
	}
	rep, err := plan.Execute(m.Workers, stdout)
	if err != nil {
		return fail(stderr, 1, "run: %v", err)
	}

	// One canonical encoding feeds the file and the digest check, so they
	// can never disagree about the bytes.
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, rep); err != nil {
		return fail(stderr, 1, "run: %v", err)
	}
	if m.Output.JSON != "" {
		if err := writeFile(m.Output.JSON, buf.Bytes()); err != nil {
			return fail(stderr, 1, "run: %v", err)
		}
	}

	// The text timeline and the Perfetto export come from one traced run, so
	// the two renderings can never describe different executions.
	if perfetto := m.Telemetry != nil && m.Telemetry.Perfetto != ""; tracePath != "" || perfetto {
		snap, err := plan.Trace()
		if err != nil {
			return fail(stderr, 1, "run: trace: %v", err)
		}
		if tracePath != "" {
			if err := writeFile(tracePath, []byte(snap.Timeline())); err != nil {
				return fail(stderr, 1, "run: trace: %v", err)
			}
		}
		if perfetto {
			if err := writeOutput(m.Telemetry.Perfetto, snap.WritePerfetto); err != nil {
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
	return 0
}
