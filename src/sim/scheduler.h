// Host-side block scheduler configuration for the simulator.
//
// sim::launch (launch.h) runs block 0 of every launch on the calling thread.
// A launch whose block 0 calls BlockCtx::commit is *ordered*: its remaining
// blocks run on the calling thread too, in block-id order, so every
// cross-block side effect (the simulated global-memory atomics) lands in
// block-id order. A launch whose block 0 does not commit is *commit-free*:
// its remaining blocks fan out over launch_workers(grid) pool workers, and a
// commit from one of them is a contract violation. Either way the result is
// a property of the launch, not of the worker count, so it is bit-identical
// for every sim_threads() value.
#pragma once

namespace gbmo::sim {

// --- worker-count configuration --------------------------------------------
// Number of host workers a commit-free launch may use. Resolution order:
// set_sim_threads() (TrainConfig::sim_threads / --sim-threads) overrides the
// GBMO_SIM_THREADS environment variable, which overrides hardware
// concurrency. Purely a host-performance knob: modeled seconds, stats and
// trained models are identical for every value.
int sim_threads();
// n <= 0 restores the env/hardware default. Returns the previous override
// (0 when none was set), so a caller can scope a change and put it back.
int set_sim_threads(int n);
int default_sim_threads();  // the env/hardware value, ignoring overrides

// Workers for one launch of grid_dim blocks: 1 when the grid is trivial or
// the launch is nested inside pool-managed work (nested launches run inline
// to keep the pool deadlock-free), else min(sim_threads(), grid_dim).
int launch_workers(int grid_dim);

}  // namespace gbmo::sim
