//! The interleaved schedule every run follows.
//!
//! Each workload is a [`Phase`] that advances in short slices. A run
//! interleaves the slices of all three phases, giving the named workload
//! 40 % of the time and each other phase 30 %, so every run reports
//! every end-to-end metric and each phase's samples are spread over the
//! whole run. The host's co-tenant load slows the work by a fifth or more
//! in bursts lasting seconds; every timed interval is therefore measured
//! between two host-speed probe passes and reported at the reference
//! speed (see `speed.rs`), and figures are medians over the run.

use std::time::{Duration, Instant};

use crate::out::Metrics;
use crate::spans::Span;
use crate::speed::Probe;

/// One workload, advanced slice by slice.
pub trait Phase {
    /// The workload's name.
    fn name(&self) -> &'static str;
    /// Runs one slice of work, timing it with `probe` (see
    /// [`crate::speed::Stopwatch`]); traced slices record spans.
    fn slice(&mut self, traced: bool, probe: &mut Probe) -> Result<(), String>;
    /// Whether every metric of the (un)traced measurement has the
    /// samples it needs.
    fn covered(&self, traced: bool) -> bool;
    /// Prepares the traced measurement.
    fn begin_trace(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// End-to-end metrics of the untraced measurement.
    fn e2e(&mut self) -> Result<Metrics, String>;
    /// Per-layer metrics of the traced measurement.
    fn layers(&mut self) -> Result<Metrics, String>;
    /// Spans of the traced measurement.
    fn spans(&self) -> &[Span];
    /// Final correctness checks; returns operations `(attempted, failed)`.
    fn finish(&mut self) -> Result<(u64, u64), String>;
}

/// Extra time a schedule may take past its deadline to give every phase
/// the samples its metrics need.
const GRACE: Duration = Duration::from_secs(60);

/// Interleaves slices of `phases` for `seconds`: each next slice goes to
/// the phase furthest below its `weights` share of the time spent. Runs
/// on past the deadline (up to [`GRACE`]) until every phase is covered.
/// Slices time themselves between host-speed `probe` passes.
pub fn schedule(
    phases: &mut [Box<dyn Phase>],
    weights: &[f64],
    seconds: f64,
    traced: bool,
    probe: &mut Probe,
) -> Result<(), String> {
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut spent = vec![0.0; phases.len()];
    loop {
        let elapsed = start.elapsed();
        let next = if elapsed < deadline {
            (0..phases.len())
                .min_by(|&a, &b| (spent[a] / weights[a]).total_cmp(&(spent[b] / weights[b])))
        } else {
            (0..phases.len()).find(|&i| !phases[i].covered(traced))
        };
        let Some(i) = next else {
            return Ok(());
        };
        if elapsed > deadline + GRACE {
            return Err(format!(
                "{}: too few samples {} s past the deadline",
                phases[i].name(),
                GRACE.as_secs()
            ));
        }
        let t0 = Instant::now();
        phases[i].slice(traced, probe)?;
        spent[i] += t0.elapsed().as_secs_f64();
    }
}
