//! Derived analytics over MPT simulation traces: the analysis pass
//! between "simulate" and "report".
//!
//! `wmpt-obs` records what happened — spans on the virtual clock,
//! metric counters, Chrome-trace files. This crate turns those artifacts
//! into the paper's claims and guards them:
//!
//! * [`critpath`] — the critical-path attribution rule: every cycle of
//!   the iteration window is charged to the most blocking subsystem
//!   (`ndp`/`dram_stall`/`tile_comm`/`collective`); the chain's total
//!   equals the simulated cycle count exactly and attribution sums to
//!   100%.
//! * [`report`] — per-track busy/idle utilization, grid utilization,
//!   top-k bottleneck spans, deterministic text tables.
//! * [`stream`] — the one analysis engine computing both, in a single
//!   pass over a trace-event stream with O(open-window) memory, or over
//!   a whole in-memory trace as one chunk.
//! * [`svg`] — a self-contained SVG timeline of the trace (no deps, no
//!   scripts), for CI artifacts and eyeballing.
//! * [`flame`] — collapsed-stack flamegraph export
//!   (`frame;frame <value>` lines plus a self-contained icicle SVG),
//!   recovering nesting by per-track span containment; works on
//!   simulator traces and the server's request-lifecycle traces alike.
//! * [`baseline`] — committed perf expectations with tolerance bands and
//!   a pass/warn/fail comparison API; `experiments --gate` exits
//!   non-zero on regression.
//!
//! [`Analysis::of_trace`] runs the engine over a live [`Tracer`] or one
//! re-parsed from a Chrome-trace file via `Tracer::from_chrome_trace`;
//! [`analyze_jsonl`] runs it chunk by chunk over a JSONL trace file.
//!
//! # Example
//!
//! ```
//! use wmpt_analyze::{Analysis, Category};
//! use wmpt_obs::Tracer;
//!
//! let mut t = Tracer::new();
//! let iter = t.track("iter");
//! t.span(iter, "layer", "forward", 0, 100);
//! let noc = t.track("noc");
//! t.span(noc, "noc", "tile_scatter", 0, 30);
//!
//! let a = Analysis::of_trace(&t);
//! assert_eq!(a.total, 100);
//! assert_eq!(a.attribution[&Category::TileComm], 30);
//! assert!(a.metrics().contains_key("critpath.share.tile_comm"));
//! ```

pub mod baseline;
pub mod critpath;
pub mod flame;
pub mod report;
pub mod stream;
pub mod svg;

pub use baseline::{flatten_numbers, Band, Baseline, CompareReport, CompareRow, Status};
pub use critpath::Category;
pub use flame::{collapsed_stacks, flame_svg};
pub use report::{Bottleneck, TrackUtilization, UtilizationReport};
pub use stream::{analyze_jsonl, StreamAnalyzer};
pub use svg::timeline_svg;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wmpt_obs::Tracer;
use wmpt_sim::Time;

/// How many bottleneck spans [`Analysis::of_trace`] keeps.
pub const TOP_K: usize = 10;

/// A complete trace analysis: critical-path attribution plus the
/// utilization report.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Critical-path cycles per category; every category is present
    /// (zeros included) and the values sum to [`Analysis::total`].
    pub attribution: BTreeMap<Category, Time>,
    /// Critical-path length: the cycles of the analysis domain (the
    /// union of `layer` windows, or the extent of all spans in a trace
    /// without them).
    pub total: Time,
    /// Number of merged critical-path segments.
    pub segment_count: usize,
    /// Per-track utilization and top-k bottlenecks.
    pub utilization: UtilizationReport,
    /// Peak buffered spans — the analyzer's memory high-water mark.
    pub peak_pending_spans: usize,
}

impl Analysis {
    /// Analyzes a whole in-memory trace (top-[`TOP_K`] bottlenecks) as
    /// one chunk, so spans may arrive in any order.
    pub fn of_trace(trace: &Tracer) -> Analysis {
        StreamAnalyzer::new(TOP_K).whole_trace(trace)
    }

    /// The combined flat metric view, the key space `mpt_sim analyze
    /// --baseline` gates on: `critpath.total_cycles`,
    /// `critpath.cycles.<category>`, `critpath.share.<category>`,
    /// `util.grid` and `util.<track>`.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        out.insert("critpath.total_cycles".to_string(), self.total as f64);
        let denom = self.total.max(1) as f64;
        for (cat, cycles) in &self.attribution {
            out.insert(format!("critpath.cycles.{}", cat.name()), *cycles as f64);
            out.insert(
                format!("critpath.share.{}", cat.name()),
                *cycles as f64 / denom,
            );
        }
        out.extend(self.utilization.metrics());
        out
    }

    /// The full deterministic text report.
    pub fn render(&self) -> String {
        let denom = self.total.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(out, "critical path: {} cycles", self.total);
        let mut cats: Vec<_> = self.attribution.iter().map(|(c, t)| (*c, *t)).collect();
        cats.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (cat, cycles) in cats {
            let _ = writeln!(
                out,
                "  {:<12} {:>14} cycles  {:>5.1}%",
                cat.name(),
                cycles,
                cycles as f64 / denom * 100.0
            );
        }
        let _ = writeln!(out, "  segments: {}", self.segment_count);
        format!("{out}\n{}", self.utilization.render_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_bundles_both_views() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 200);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 200);
        let a = Analysis::of_trace(&t);
        assert_eq!(a.total, 200);
        assert_eq!(a.utilization.domain, 200);
        let m = a.metrics();
        assert_eq!(m["critpath.total_cycles"], 200.0);
        assert_eq!(m["util.worker0"], 1.0);
        let text = a.render();
        assert!(text.contains("critical path"));
        assert!(text.contains("utilization"));
    }
}
