package stamp

import (
	"fmt"

	"seer"
)

// TestbedHWThreads and TestbedPhysCores are the paper's machine: a
// 4-core, 8-hardware-thread processor. Thread counts 1–4 land on
// distinct physical cores; 5–8 start doubling up hyperthread siblings
// (worker i runs on hardware thread i, and threads t, t+4 share a core).
const (
	TestbedHWThreads = 8
	TestbedPhysCores = 4
)

// Config is the cell recipe: the seer.Config that fits wl on a machine
// running threads workers. A zero topo means the paper's testbed, grown
// flat when threads exceeds its 8 hardware threads; a non-zero topo pins
// the shape. Everything else is seer.DefaultConfig (seed 1, Seer policy,
// 5 attempts) for the caller to override.
func Config(wl Workload, threads int, topo seer.Topology) seer.Config {
	cfg := seer.DefaultConfig()
	cfg.Threads = threads
	cfg.NumAtomicBlocks = wl.NumAtomicBlocks()
	cfg.MemWords = wl.MemWords() + (1 << 14)
	if topo.IsZero() {
		cfg.HWThreads = TestbedHWThreads
		cfg.PhysCores = TestbedPhysCores
		if threads > TestbedHWThreads {
			cfg.HWThreads = threads
		}
	} else {
		cfg.Topology = topo
		// Wide machines grow per-thread state in simulated memory (arena
		// shard lines and slack chunks, thread-stat lines); extra words
		// only extend the address space, they never shift the layout.
		cfg.MemWords += topo.Threads() * 2048
	}
	cfg.MaxCycles = 1 << 36 // livelock guard
	return cfg
}

// Run executes one cell: it builds the system, populates it, runs one
// worker per configured thread and validates the workload's invariants.
// The system is returned for inspection (and Release); it is nil when
// the cell failed.
func Run(wl Workload, cfg seer.Config) (*seer.System, seer.Report, error) {
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		return nil, seer.Report{}, err
	}
	if err := wl.Setup(sys); err != nil {
		return nil, seer.Report{}, fmt.Errorf("setup: %w", err)
	}
	rep, err := sys.Run(wl.Workers(cfg.Threads))
	if err != nil {
		return nil, seer.Report{}, fmt.Errorf("run: %w", err)
	}
	if err := wl.Validate(sys); err != nil {
		return nil, seer.Report{}, fmt.Errorf("validation: %w", err)
	}
	return sys, rep, nil
}
