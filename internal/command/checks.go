package command

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// Validate is the single exit-code-2 gate every subcommand funnels its
// parsed flags through: it returns the first failing check, prefixed with
// the subcommand name. Each check below returns nil or a descriptive
// error, so a subcommand's whole flag contract reads as one call:
//
//	err := Validate("trace",
//		Positive("top", *top),
//		Writable("json", *jsonPath))
func Validate(cmd string, checks ...error) error {
	for _, err := range checks {
		if err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
	}
	return nil
}

// Positive requires v >= 1.
func Positive(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s must be positive, got %d", name, v)
	}
	return nil
}

// NonNegative requires v >= 0.
func NonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must be >= 0, got %d", name, v)
	}
	return nil
}

// Writable requires path (when set) to point into an existing directory,
// so a typo'd -json/-csv/-trace/-cpuprofile/-memprofile destination fails
// before the simulation runs instead of after it. The file itself need not
// exist.
func Writable(name, path string) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	info, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("-%s: directory %s does not exist", name, dir)
	}
	if !info.IsDir() {
		return fmt.Errorf("-%s: %s is not a directory", name, dir)
	}
	return nil
}

// StartCPUProfile begins CPU profiling to path and returns the stop
// function; an empty path is a no-op. Callers defer the stop:
//
//	stop, err := StartCPUProfile(*cpuprofile)
//	...
//	defer stop()
func StartCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteAllocProfile writes the allocation profile — every sampled
// allocation since process start, live or collected, as `go tool pprof
// -sample_index=alloc_space` reads it — to path; an empty path is a no-op.
// Call it after the run it should describe.
func WriteAllocProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // the profile is complete only up to the last collection
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
