package obs

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles serves a command's -cpuprofile and -memprofile: it starts
// a CPU profile into cpuPath and returns stop, which ends it and writes a
// heap profile to memPath, after a GC so that it holds what the run keeps
// live. Either path may be empty. The command calls stop before every
// exit, the failing ones included: log.Fatal and os.Exit skip deferred
// calls, and a failing run is when a profile is wanted.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if memPath == "" {
			return err
		}
		f, cerr := os.Create(memPath)
		if cerr != nil {
			return errors.Join(err, cerr)
		}
		runtime.GC()
		return errors.Join(err, pprof.WriteHeapProfile(f), f.Close())
	}, nil
}
