//! The repository benchmark: three named workloads of the simulator, their
//! end-to-end metrics, and a traced run that attributes host time to the
//! layers of the stack.
//!
//! Two binaries share this library. `perfbench` is the timed run: it
//! repeats one workload for a wall-clock budget and reports host rates,
//! set-up time, memory and the virtual-time latency outcomes, after gating
//! every repetition on correctness. `perfbench-trace` is the traced run: it
//! re-hosts the same world in [`mirror`] actors that time every call into
//! the group, server and client layers, checks the mirror against the
//! untraced run event for event, and reports per-layer self-time and
//! counters. See `README.md` next to this crate for the layer map.

pub mod cli;
pub mod drive;
pub mod latency;
pub mod mirror;
pub mod report;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;
