//! The critical-path attribution rule.
//!
//! The observed simulators tile every iteration's `[0, total_cycles)`
//! window with `layer`-category phase spans and lay subsystem activity
//! (NDP stages, tile transfers, collectives, DRAM stalls) inside those
//! windows. The critical path re-derives the paper's attribution claims
//! from that layout: every cycle of the iteration window is charged to
//! exactly one [`Category`], picking the *most blocking* subsystem
//! wherever activities overlap — a collective serializes the whole grid,
//! a tile transfer serializes a cluster, a DRAM stall serializes one
//! worker's pipeline, and NDP compute is the default owner of the
//! window. Between spans of the same category, the one recorded last
//! wins. The result is a gapless segment chain (adjacent slices claimed
//! by same-named spans merge) whose total equals the simulated cycle
//! count exactly and whose per-category attribution sums to 100%. The
//! sweep itself runs in [`crate::stream`].

use wmpt_sim::Time;

/// Subsystem a critical-path cycle is attributed to, ordered by how much
/// of the machine the subsystem serializes when it is the blocker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// NDP compute (systolic/vector stages) — the default owner.
    Ndp,
    /// DRAM stream overhanging compute in a worker pipeline.
    DramStall,
    /// Tile scatter/gather on the NoC.
    TileComm,
    /// Grid-wide weight collective (reduce + broadcast).
    Collective,
}

impl Category {
    /// Every category, in ascending blocking priority.
    pub const ALL: [Category; 4] = [
        Category::Ndp,
        Category::DramStall,
        Category::TileComm,
        Category::Collective,
    ];

    /// Serialized name, used in reports and baseline metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Category::Ndp => "ndp",
            Category::DramStall => "dram_stall",
            Category::TileComm => "tile_comm",
            Category::Collective => "collective",
        }
    }

    /// Maps a span category string (the Chrome `cat` field emitted by the
    /// observed simulators) to an attribution category. `layer` windows
    /// and explicit `idle` filler are structure, not work — they map to
    /// `None`.
    pub fn from_span_cat(cat: &str) -> Option<Category> {
        match cat {
            "ndp" => Some(Category::Ndp),
            "dram" => Some(Category::DramStall),
            "noc" => Some(Category::TileComm),
            "collective" => Some(Category::Collective),
            _ => None,
        }
    }
}

/// Merges intervals into a sorted, disjoint interval set.
pub(crate) fn interval_union(mut iv: Vec<(Time, Time)>) -> Vec<(Time, Time)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<(Time, Time)> = Vec::new();
    for (s, e) in iv {
        match out.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use wmpt_obs::Tracer;

    fn trace() -> Tracer {
        // One 100-cycle layer window: ndp tiles it, a noc transfer covers
        // [10, 40), a collective [40, 60), a dram stall [80, 100).
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 100);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 100);
        let n = t.track("noc");
        t.span(n, "noc", "tile_scatter", 10, 40);
        let c = t.track("collective");
        t.span(c, "collective", "reduce", 40, 60);
        let d = t.track("dram0");
        t.span(d, "dram", "stall", 80, 100);
        t
    }

    #[test]
    fn attribution_prefers_the_most_blocking_subsystem() {
        let a = Analysis::of_trace(&trace());
        assert_eq!(a.total, 100);
        let attr = &a.attribution;
        assert_eq!(attr[&Category::TileComm], 30);
        assert_eq!(attr[&Category::Collective], 20);
        assert_eq!(attr[&Category::DramStall], 20);
        assert_eq!(attr[&Category::Ndp], 30);
        assert_eq!(attr.values().sum::<Time>(), a.total);
    }

    #[test]
    fn segments_are_gapless_and_merged() {
        // Adjacent same-attribution slices merged: ndp, noc, coll, ndp, dram.
        assert_eq!(Analysis::of_trace(&trace()).segment_count, 5);
    }

    #[test]
    fn later_recorded_span_wins_a_same_category_tie() {
        let tie = |inner_last: bool| {
            let mut t = Tracer::new();
            let iter = t.track("iter");
            t.span(iter, "layer", "forward", 0, 100);
            let w = t.track("worker0");
            let (outer, inner) = (("gemm", 0, 100), ("vector", 20, 60));
            let order = if inner_last {
                [outer, inner]
            } else {
                [inner, outer]
            };
            for (name, s, e) in order {
                t.span(w, "ndp", name, s, e);
            }
            Analysis::of_trace(&t).segment_count
        };
        // `vector` recorded last claims [20, 60): gemm, vector, gemm.
        assert_eq!(tie(true), 3);
        // `gemm` recorded last claims every slice, which merge into one.
        assert_eq!(tie(false), 1);
    }

    #[test]
    fn spans_outside_the_layer_window_are_clipped() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 50);
        let n = t.track("noc");
        t.span(n, "noc", "tile_gather", 30, 90); // overflows the window
        let a = Analysis::of_trace(&t);
        assert_eq!(a.total, 50);
        assert_eq!(a.attribution[&Category::TileComm], 20);
    }

    #[test]
    fn untraced_window_cycles_count_as_stall() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 40);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 25);
        let d = t.track("dram0");
        t.span(d, "dram", "stall", 25, 30);
        let a = Analysis::of_trace(&t);
        assert_eq!(a.attribution[&Category::DramStall], 15);
        // The untraced tail is its own `(untraced)` segment: it does not
        // merge into the adjacent recorded stall.
        assert_eq!(a.segment_count, 3);
    }

    #[test]
    fn idle_filler_is_not_work() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 40);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 40);
        let n = t.track("noc");
        t.span(n, "idle", "noc_idle", 0, 40);
        let a = Analysis::of_trace(&t);
        assert_eq!(a.attribution[&Category::Ndp], 40);
        assert_eq!(a.attribution[&Category::TileComm], 0);
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let a = Analysis::of_trace(&Tracer::new());
        assert_eq!(a.total, 0);
        assert_eq!(a.segment_count, 0);
        assert!(a.metrics()["critpath.total_cycles"] == 0.0);
    }

    #[test]
    fn metrics_shares_sum_to_one() {
        let m = Analysis::of_trace(&trace()).metrics();
        let share: f64 = Category::ALL
            .iter()
            .map(|c| m[&format!("critpath.share.{}", c.name())])
            .sum();
        assert!((share - 1.0).abs() < 1e-12, "shares sum to {share}");
    }
}
