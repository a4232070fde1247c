//! The benchmark harness: one reproduction per table and figure of the
//! paper's evaluation chapter (see the per-experiment index in
//! `DESIGN.md`).
//!
//! `cargo run -p ule-bench --release --bin repro -- all` regenerates
//! everything; individual experiments run with their id (`fig7_1`,
//! `t7_4`, `s7_7`, …). `repro -- --list` prints the id catalogue.
//!
//! Simulations go through [`SweepEngine`]: a thread-safe memoizing
//! runner keyed by the typed `(SystemConfig, Workload)` pair. Identical
//! design points are simulated once and shared as `Arc<RunReport>`;
//! [`SweepEngine::run_batch`] fans a job list out across cores (thread
//! count from `std::thread::available_parallelism`, overridable via
//! `ULE_SWEEP_THREADS` or [`SweepEngine::with_threads`]). Results are
//! deterministic regardless of thread count — the simulator is a pure
//! function of its configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod diff;
pub mod experiments;
pub mod explore;
pub mod metrics_out;
pub mod prior;
pub mod sweep;

pub use experiments::ExperimentId;
pub use sweep::{ConfigKey, EngineStats, Job, SweepEngine};
