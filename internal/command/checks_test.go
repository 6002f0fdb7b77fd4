package command

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidate is the table test for the unified exit-code-2 flag gate:
// every check type, passing and failing, and the subcommand-name prefix.
func TestValidate(t *testing.T) {
	tmp := t.TempDir()
	cases := []struct {
		name  string
		check error
		want  string // "" = pass; otherwise a substring of the error
	}{
		{"positive ok", Positive("iters", 1), ""},
		{"positive zero", Positive("iters", 0), "-iters must be positive"},
		{"positive negative", Positive("iters", -3), "-iters must be positive"},
		{"nonnegative ok", NonNegative("warmup", 0), ""},
		{"nonnegative bad", NonNegative("warmup", -1), "-warmup must be >= 0"},
		{"writable empty", Writable("json", ""), ""},
		{"writable ok", Writable("json", filepath.Join(tmp, "out.json")), ""},
		{"writable missing dir", Writable("json", filepath.Join(tmp, "nope", "out.json")), "does not exist"},
	}
	for _, c := range cases {
		err := Validate("osu", c.check)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error containing %q", c.name, c.want)
			continue
		}
		if !strings.HasPrefix(err.Error(), "osu: ") {
			t.Errorf("%s: error %q is not prefixed with the subcommand name", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestValidateFirstFailureWins(t *testing.T) {
	err := Validate("train", nil, Positive("layers", 0), NonNegative("compute", -1))
	if err == nil || !strings.Contains(err.Error(), "-layers") {
		t.Fatalf("expected the first failing check, got %v", err)
	}
}

func TestWritableNonDirParent(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Writable("csv", filepath.Join(file, "out.csv"))
	if err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("expected not-a-directory error, got %v", err)
	}
}
