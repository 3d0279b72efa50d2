// The -cpuprofile/-memprofile flags of the measurement subcommand
// bench-obs, so a slow run can be pinned to its hot path with the
// stock pprof toolchain.  This file
// carries no clock reads and no randomness, so the deterministic
// subcommands in main.go may call it freely.

package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags bundles the profiling knobs (the cmd drift test walks
// addProfileFlags's AST, like the serve roster).
type profileFlags struct {
	cpu *string
	mem *string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		cpu: fs.String("cpuprofile", "", "write a pprof CPU profile of the run here"),
		mem: fs.String("memprofile", "", "write a pprof heap profile here at exit (after a final GC)"),
	}
}

// start begins CPU profiling when requested and returns the stop
// function the caller must defer: it finishes the CPU profile and
// writes the heap profile.  Stop-side failures are reported on stderr
// — by then the measurement itself has already succeeded.
func (pf *profileFlags) start() (stop func(), err error) {
	var cpuFile *os.File
	if *pf.cpu != "" {
		cpuFile, err = os.Create(*pf.cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "scg: closing -cpuprofile: %v\n", err)
			}
		}
		if *pf.mem != "" {
			f, err := os.Create(*pf.mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scg: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle live objects so the heap profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "scg: -memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "scg: closing -memprofile: %v\n", err)
			}
		}
	}, nil
}
