// repro is the single entry point for every experiment in this
// repository. Every experiment is a manifest: `repro run
// manifests/pr.json` executes one, `repro validate` lints them without
// running, and `repro list` names what a manifest can reference. Run
// `repro help` for the full subcommand list.
package main

import (
	"os"

	"repro/internal/command"
)

func main() {
	os.Exit(command.Run(os.Args[1:], os.Stdout, os.Stderr))
}
