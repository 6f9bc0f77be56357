// Package prof writes CPU and allocation profiles for the command-line
// tools, so a run can be profiled without serving live pprof over HTTP.
// Inspect the files with `go tool pprof -top <binary> <file>`.
package prof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and returns a function that
// ends it and writes an allocation profile to memPath. An empty path turns
// that profile off. Both files are created up front, so a bad path fails
// before the run rather than after it.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("memprofile: %w", err)
		}
	}
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if mem != nil {
			runtime.GC() // fold the final frees into the profile
			if err := errors.Join(pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close()); err != nil {
				errs = append(errs, fmt.Errorf("memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}
