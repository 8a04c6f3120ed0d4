//! The repository benchmark: three seeded phases (`train_step`,
//! `sim_sweep`, `serve_zipf`) measured against the release build, with a
//! separate traced pass that attributes time to the workspace's layers.
//!
//! Each phase is a [`phase::Phase`] in its own module; `main.rs`
//! interleaves them with [`phase::schedule`] and prints the result. The
//! helpers — percentiles, the span recorder, the seeded generators and
//! the serve mix, the host-speed probe and its stopwatch, and the run
//! stamp — are what `tests/helpers.rs` checks.

pub mod out;
pub mod phase;
pub mod rng;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod speed;
pub mod stamp;
pub mod stats;
pub mod train;
