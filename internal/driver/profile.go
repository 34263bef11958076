package driver

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts the pprof captures behind -cpuprofile and
// -memprofile; either path may be empty to skip that profile. The
// returned stop ends the CPU profile and writes the heap profile after
// a final GC, so the memory numbers reflect live steady-state
// allocations rather than garbage awaiting collection.
//
// A CPU profile that cannot start is an error: a sweep run specifically
// to capture a profile should not complete having captured nothing.
func startProfiles(cpuProfile, memProfile string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		var cpuErr, memErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				cpuErr = fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memProfile != "" {
			if err := writeHeapProfile(memProfile); err != nil {
				memErr = fmt.Errorf("-memprofile: %w", err)
			}
		}
		return errors.Join(cpuErr, memErr)
	}, nil
}

// writeHeapProfile writes a post-GC heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}
