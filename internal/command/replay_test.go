package command

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeManifest writes a raw manifest document to dir and returns its path.
func writeManifest(t *testing.T, dir, name, doc string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplaySubcommand covers `repro replay` end to end on a small OSU
// manifest: the run records waypoints, the seek lands on the requested
// virtual time, the stepped events print, and the output is deterministic
// across invocations (the stepped events are a replay, not a re-run).
func TestReplaySubcommand(t *testing.T) {
	m := smallOSUManifest(t, t.TempDir(), "m.json", "", "")
	args := []string{"replay", "-interval", "5", "-at", "10", "-steps", "8", m}

	code, out, stderr := run(args...)
	if code != 0 {
		t.Fatalf("replay: exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"# replay: mcast-allgather", "waypoints every", "# waypoint 0: t=0 ns", "# seek t=10000 ns", "# replay done"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q in:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "seq="); got != 8 {
		t.Errorf("replay printed %d stepped events, want 8:\n%s", got, out)
	}

	_, again, _ := run(args...)
	if again != out {
		t.Errorf("replay is not deterministic:\n--- first\n%s\n--- second\n%s", out, again)
	}
}

// TestReplayFlagValidation pins the exit-2 rejections: bad flag values,
// missing or surplus manifests, and kinds with no replayable point.
func TestReplayFlagValidation(t *testing.T) {
	dir := t.TempDir()
	m := smallOSUManifest(t, dir, "m.json", "", "")
	tables := writeManifest(t, dir, "tables.json", `{"kind":"sweep","sections":[{"title":"t","kernel":"psn-sizing"},{"title":"u","kernel":"economics"}]}`)

	cases := []struct {
		name string
		args []string
		err  string
	}{
		{"no manifest", []string{"replay"}, "usage"},
		{"two manifests", []string{"replay", m, m}, "usage"},
		{"bad interval", []string{"replay", "-interval", "0", m}, "-interval"},
		{"bad steps", []string{"replay", "-steps", "0", m}, "-steps"},
		{"negative at", []string{"replay", "-at", "-1", m}, "-at"},
		{"no replayable point", []string{"replay", tables}, "no replayable point"},
	}
	for _, c := range cases {
		code, _, stderr := run(c.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", c.name, code, stderr)
			continue
		}
		if !strings.Contains(stderr, c.err) {
			t.Errorf("%s: stderr %q does not contain %q", c.name, stderr, c.err)
		}
	}
}
