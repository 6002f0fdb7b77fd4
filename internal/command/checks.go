package command

import (
	"fmt"
	"io"
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
// so a typo'd -json/-trace/-cpuprofile/-memprofile destination fails
// before the simulation runs instead of after it. The file itself need not
// exist.
func Writable(name, path string) error {
	if err := writableDir(path); err != nil {
		return fmt.Errorf("-%s: %w", name, err)
	}
	return nil
}

// writableDir is Writable's check without the flag name.
func writableDir(path string) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	info, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("directory %s does not exist", dir)
	}
	if !info.IsDir() {
		return fmt.Errorf("%s is not a directory", dir)
	}
	return nil
}

// createOutput opens every file `repro run` writes without truncating it:
// the new bytes overwrite the old ones in place, and Close cuts a regular
// file to exactly the bytes written. Truncating, deleting or renaming over
// a file frees its blocks, which on a filesystem mounted with online
// discard (ext4 -o discard) stalls the caller for tens of milliseconds
// whatever the file's size. The rewrite is not atomic: a crash mid-write
// leaves old bytes after the new ones. Devices such as /dev/null are
// written but never cut. New files are 0o644.
func createOutput(path string) (*outputFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &outputFile{f}, nil
}

// outputFile is a file opened by createOutput. Writes run from offset 0,
// so at Close the offset is the byte count and anything past it is the
// previous output's tail.
type outputFile struct{ *os.File }

func (o *outputFile) Close() error {
	err := o.cut()
	if cerr := o.File.Close(); err == nil {
		err = cerr
	}
	return err
}

func (o *outputFile) cut() error {
	info, err := o.Stat()
	if err != nil || !info.Mode().IsRegular() {
		return err
	}
	n, err := o.Seek(0, io.SeekCurrent)
	if err != nil || info.Size() <= n {
		return err
	}
	return o.Truncate(n)
}

// writeOutput creates path with createOutput and streams write into it.
func writeOutput(path string, write func(io.Writer) error) error {
	f, err := createOutput(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFile writes data to path through createOutput.
func writeFile(path string, data []byte) error {
	return writeOutput(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
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
	f, err := createOutput(path)
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
	runtime.GC() // the profile is complete only up to the last collection
	if err := writeOutput(path, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) }); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
