//! The trace-analysis engine: critical-path attribution and per-track
//! utilization in a single pass over a trace-event stream.
//!
//! [`StreamAnalyzer`] consumes [`TraceEvent`]s one at a time — e.g.
//! straight off a `StreamingTracer` JSONL file — and holds only the
//! spans of the current epoch (O(open-window), not O(all-spans)).
//! The batch path, [`crate::Analysis::of_trace`], runs the same engine
//! over a whole in-memory trace as one chunk, which accepts spans in any
//! order.
//!
//! # Epochs
//!
//! The observed simulators emit each layer's spans in a block that opens
//! with the layer's `layer`-category window span, and every span of
//! layer *j* starts at or after that window's start. The analyzer
//! exploits this: a `layer` span arriving after non-`layer` spans marks
//! an epoch boundary *B* — every event still to come starts at or after
//! *B*, so the analysis of `[processed, B)` is final. Each boundary
//! finalizes a chunk (critical-path attribution, per-track busy time)
//! and drops spans that end at or before it. The invariant is checked,
//! not assumed: an event starting before the finalized frontier makes
//! [`StreamAnalyzer::event`] return an error, and callers (the `analyze`
//! CLI) fall back to the batch path. Traces with no `layer` spans
//! at all buffer until [`StreamAnalyzer::finish`] and use the extent of
//! all spans as their domain.
//!
//! Chunked analysis equals batch analysis by construction: the
//! elementary-interval attribution is time-local (an interval's owner
//! depends only on the spans covering it, all of which have arrived
//! before its chunk is finalized), busy time is an interval-union length
//! (additive over any partition of the timeline), and segments merge
//! across chunk boundaries through a carried open segment.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use wmpt_obs::{jsonl_events, TraceEvent, Tracer};
use wmpt_sim::Time;

use crate::critpath::{interval_union, Category};
use crate::report::{Bottleneck, TrackUtilization, UtilizationReport};
use crate::Analysis;

/// A buffered span of the current epoch.
#[derive(Debug, Clone)]
struct PendSpan {
    tid: usize,
    cat: String,
    name: String,
    start: Time,
    end: Time,
}

/// Ordering of the bottleneck list: heaviest first, then earliest start,
/// then track and name. Full ties keep recording order.
fn bottleneck_order(a: &Bottleneck, b: &Bottleneck) -> Ordering {
    b.cycles
        .cmp(&a.cycles)
        .then(a.start.cmp(&b.start))
        .then(a.track.cmp(&b.track))
        .then(a.name.cmp(&b.name))
}

/// Incremental single-pass analyzer; feed [`TraceEvent`]s in recorded
/// order, then [`StreamAnalyzer::finish`].
#[derive(Debug, Clone, Default)]
pub struct StreamAnalyzer {
    top_k: usize,
    tracks: Vec<String>,
    any_work: Vec<bool>,
    busy: Vec<Time>,
    pending: Vec<PendSpan>,
    /// Everything before this cycle is finalized.
    processed: Time,
    saw_layer: bool,
    prev_was_layer: bool,
    seen_span: bool,
    attribution: BTreeMap<Category, Time>,
    total: Time,
    segment_count: usize,
    /// `(end, category, name)` of the segment still growing at the
    /// finalized frontier.
    open_seg: Option<(Time, Category, String)>,
    bottlenecks: Vec<Bottleneck>,
    peak_pending_spans: usize,
}

impl StreamAnalyzer {
    /// An analyzer keeping the `top_k` heaviest spans.
    pub fn new(top_k: usize) -> StreamAnalyzer {
        StreamAnalyzer {
            top_k,
            attribution: Category::ALL.iter().map(|&c| (c, 0)).collect(),
            ..Default::default()
        }
    }

    /// Consumes one event. Errors on a non-dense track registration, a
    /// span on an unregistered track, or a span starting before the
    /// finalized frontier (a trace that is not epoch-ordered — use
    /// [`crate::Analysis::of_trace`] for those).
    pub fn event(&mut self, ev: &TraceEvent) -> Result<(), String> {
        match ev {
            TraceEvent::Track { tid, name } => {
                match tid.cmp(&self.tracks.len()) {
                    Ordering::Less => {
                        if self.tracks[*tid] != *name {
                            return Err(format!("tid {tid} registered twice"));
                        }
                    }
                    Ordering::Equal => self.register(name),
                    Ordering::Greater => {
                        return Err(format!(
                            "non-dense track registration: tid {tid} after {} tracks",
                            self.tracks.len()
                        ));
                    }
                }
                Ok(())
            }
            TraceEvent::Span {
                tid,
                cat,
                name,
                start,
                end,
            } => {
                if *tid >= self.tracks.len() {
                    return Err(format!("span on unregistered tid {tid}"));
                }
                if *start < self.processed {
                    return Err(format!(
                        "span '{name}' starts at {start}, before the finalized \
                         frontier {} — trace is not epoch-ordered",
                        self.processed
                    ));
                }
                let is_layer = cat == "layer";
                if is_layer && self.seen_span && !self.prev_was_layer {
                    self.finalize_to(*start);
                }
                self.seen_span = true;
                self.prev_was_layer = is_layer;
                self.buffer(*tid, cat, name, *start, *end);
                Ok(())
            }
        }
    }

    /// Analyzes a whole in-memory trace as one chunk: no epoch boundary
    /// is taken, so any span order is accepted.
    pub(crate) fn whole_trace(mut self, trace: &Tracer) -> Analysis {
        for name in trace.tracks() {
            self.register(name);
        }
        for sp in trace.spans() {
            self.buffer(sp.track.index(), &sp.cat, &sp.name, sp.start, sp.end);
        }
        self.finish()
    }

    fn register(&mut self, name: &str) {
        self.tracks.push(name.to_string());
        self.any_work.push(false);
        self.busy.push(0);
    }

    /// Holds a span until its chunk is finalized and offers work spans
    /// to the bottleneck list.
    fn buffer(&mut self, tid: usize, cat: &str, name: &str, start: Time, end: Time) {
        if cat == "layer" {
            self.saw_layer = true;
        } else if cat != "idle" {
            self.any_work[tid] = true;
            if end > start {
                self.push_bottleneck(Bottleneck {
                    track: self.tracks[tid].clone(),
                    cat: cat.to_string(),
                    name: name.to_string(),
                    start,
                    cycles: end - start,
                });
            }
        }
        self.pending.push(PendSpan {
            tid,
            cat: cat.to_string(),
            name: name.to_string(),
            start,
            end,
        });
        self.peak_pending_spans = self.peak_pending_spans.max(self.pending.len());
    }

    fn push_bottleneck(&mut self, b: Bottleneck) {
        if self.top_k == 0 {
            return;
        }
        if self.bottlenecks.len() == self.top_k {
            if let Some(last) = self.bottlenecks.last() {
                // Not better than the current boundary: on a full tie
                // the earlier recording keeps its place.
                if bottleneck_order(last, &b) != Ordering::Greater {
                    return;
                }
            }
        }
        let at = self
            .bottlenecks
            .partition_point(|x| bottleneck_order(x, &b) != Ordering::Greater);
        self.bottlenecks.insert(at, b);
        self.bottlenecks.truncate(self.top_k);
    }

    /// Finalizes `[processed, upto)` against the pending spans and drops
    /// spans that cannot cover anything at or after `upto`.
    fn finalize_to(&mut self, upto: Time) {
        if upto <= self.processed {
            return;
        }
        let domain: Vec<(Time, Time)> = interval_union(
            self.pending
                .iter()
                .filter(|s| s.cat == "layer")
                .map(|s| (s.start.max(self.processed), s.end.min(upto)))
                .collect(),
        );
        self.process_chunk(&domain);
        self.processed = upto;
        self.pending.retain(|s| s.end > upto);
    }

    /// Attributes one chunk: `domain` is the (already clipped, disjoint,
    /// sorted) analysis domain of the chunk.
    fn process_chunk(&mut self, domain: &[(Time, Time)]) {
        if domain.is_empty() {
            return;
        }
        self.total += domain.iter().map(|(s, e)| e - s).sum::<Time>();

        // Per-track busy: union length of work intervals ∩ domain.
        // Chunks partition the timeline, so per-chunk unions add up to
        // exactly the whole-trace union.
        let mut per_track: BTreeMap<usize, Vec<(Time, Time)>> = BTreeMap::new();
        for sp in &self.pending {
            if sp.cat == "idle" || sp.cat == "layer" {
                continue;
            }
            for &(ds, de) in domain {
                let (s, e) = (sp.start.max(ds), sp.end.min(de));
                if e > s {
                    per_track.entry(sp.tid).or_default().push((s, e));
                }
            }
        }
        for (tid, iv) in per_track {
            self.busy[tid] += interval_union(iv).iter().map(|(s, e)| e - s).sum::<Time>();
        }

        // Critical path over the chunk: clipped work spans in recording
        // order, elementary intervals, most-blocking span wins (the last
        // recorded on ties: `max_by_key` keeps the last maximum).
        let mut work: Vec<(Time, Time, Category, &str)> = Vec::new();
        for sp in &self.pending {
            let Some(cat) = Category::from_span_cat(&sp.cat) else {
                continue;
            };
            for &(ds, de) in domain {
                let (s, e) = (sp.start.max(ds), sp.end.min(de));
                if e > s {
                    work.push((s, e, cat, &sp.name));
                }
            }
        }
        let mut cuts: Vec<Time> = Vec::new();
        for &(s, e) in domain {
            cuts.push(s);
            cuts.push(e);
        }
        for &(s, e, _, _) in &work {
            cuts.push(s);
            cuts.push(e);
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut claims: Vec<(Time, Time, Category, String)> = Vec::new();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if !domain.iter().any(|&(ds, de)| ds <= a && b <= de) {
                continue;
            }
            let best = work
                .iter()
                .filter(|&&(s, e, _, _)| s <= a && b <= e)
                .max_by_key(|&&(_, _, cat, _)| cat);
            match best {
                Some(&(_, _, cat, name)) => claims.push((a, b, cat, name.to_string())),
                // In-window cycles with no recorded work: count them as
                // pipeline stall so they cannot inflate compute share.
                None => claims.push((a, b, Category::DramStall, "(untraced)".to_string())),
            }
        }
        for (a, b, cat, name) in claims {
            self.push_segment(a, b, cat, &name);
        }
    }

    /// Extends the open segment when the slice continues it (same end,
    /// category and span name), otherwise commits it and opens a new one.
    /// The open segment carries across chunk boundaries.
    fn push_segment(&mut self, start: Time, end: Time, cat: Category, name: &str) {
        *self
            .attribution
            .get_mut(&cat)
            .expect("all categories seeded") += end - start;
        if let Some((open_end, open_cat, open_name)) = &mut self.open_seg {
            if *open_end == start && *open_cat == cat && open_name == name {
                *open_end = end;
                return;
            }
            self.segment_count += 1;
        }
        self.open_seg = Some((end, cat, name.to_string()));
    }

    /// Finalizes the remaining pending spans and builds the reports.
    pub fn finish(mut self) -> Analysis {
        let extent = self.pending.iter().map(|s| s.end).max().unwrap_or(0);
        if self.saw_layer {
            self.finalize_to(extent.max(self.processed));
        } else if !self.pending.is_empty() {
            // A trace without layer windows: the domain is the extent of
            // all spans. Nothing was finalized earlier (boundaries only
            // occur on layer spans), so this is the whole trace in one
            // chunk.
            let domain = interval_union(self.pending.iter().map(|s| (s.start, s.end)).collect());
            self.process_chunk(&domain);
            self.processed = extent;
            self.pending.clear();
        }
        if self.open_seg.take().is_some() {
            self.segment_count += 1;
        }

        let mut tracks: Vec<TrackUtilization> = Vec::new();
        for (tid, name) in self.tracks.iter().enumerate() {
            if !self.any_work[tid] {
                continue;
            }
            let busy = self.busy[tid];
            tracks.push(TrackUtilization {
                track: name.clone(),
                busy,
                idle: self.total.saturating_sub(busy),
                utilization: if self.total > 0 {
                    busy as f64 / self.total as f64
                } else {
                    0.0
                },
            });
        }
        let grid_utilization = if tracks.is_empty() {
            0.0
        } else {
            tracks.iter().map(|t| t.utilization).sum::<f64>() / tracks.len() as f64
        };
        Analysis {
            attribution: self.attribution,
            total: self.total,
            segment_count: self.segment_count,
            utilization: UtilizationReport {
                tracks,
                bottlenecks: self.bottlenecks,
                domain: self.total,
                grid_utilization,
            },
            peak_pending_spans: self.peak_pending_spans,
        }
    }
}

/// Streams a JSONL trace file through a [`StreamAnalyzer`]
/// (top-[`crate::TOP_K`] bottlenecks). Epoch-order violations surface as
/// `InvalidData` errors; callers can fall back to
/// [`crate::Analysis::of_trace`].
pub fn analyze_jsonl(path: &Path) -> io::Result<Analysis> {
    let mut an = StreamAnalyzer::new(crate::TOP_K);
    for ev in jsonl_events(path)? {
        an.event(&ev?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    }
    Ok(an.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays an in-memory tracer through the streaming analyzer, in
    /// the order the events would appear on a JSONL stream.
    fn stream_of(trace: &Tracer) -> Analysis {
        let mut an = StreamAnalyzer::new(crate::TOP_K);
        for (tid, name) in trace.tracks().iter().enumerate() {
            an.event(&TraceEvent::Track {
                tid,
                name: name.clone(),
            })
            .expect("track");
        }
        for sp in trace.spans() {
            an.event(&TraceEvent::Span {
                tid: sp.track.index(),
                cat: sp.cat.clone(),
                name: sp.name.clone(),
                start: sp.start,
                end: sp.end,
            })
            .expect("span");
        }
        an.finish()
    }

    fn assert_matches_batch(trace: &Tracer) -> Analysis {
        let batch = Analysis::of_trace(trace);
        let stream = stream_of(trace);
        assert_eq!(stream.metrics(), batch.metrics(), "metrics diverge");
        assert_eq!(stream.render(), batch.render(), "report diverges");
        assert_eq!(stream.segment_count, batch.segment_count);
        stream
    }

    fn epoch_trace() -> Tracer {
        // Two layers, each opening with its layer window; dram/noc tails
        // overflow into the next epoch.
        let mut t = Tracer::new();
        let iter = t.track("iter");
        let w0 = t.track("worker0");
        let noc = t.track("noc");
        let d0 = t.track("dram0");
        t.span(iter, "layer", "fwd", 0, 100);
        t.span(iter, "layer", "bwd", 100, 220);
        t.span(w0, "ndp", "gemm_f", 0, 90);
        t.span(noc, "noc", "tile_scatter", 10, 40);
        t.span(d0, "dram", "stall", 80, 130); // tail past the next base
        t.span(iter, "layer", "fwd", 220, 320);
        t.span(iter, "layer", "bwd", 320, 460);
        t.span(w0, "ndp", "gemm_f", 220, 400);
        t.span(noc, "collective", "reduce", 400, 460);
        t
    }

    #[test]
    fn streaming_matches_batch_on_epoch_trace() {
        let s = assert_matches_batch(&epoch_trace());
        // The whole point: the second epoch finalized the first, so the
        // analyzer never held all 9 spans at once.
        assert!(
            s.peak_pending_spans < 9,
            "no chunking happened: peak {}",
            s.peak_pending_spans
        );
        assert!(s.total > 0);
    }

    #[test]
    fn streaming_matches_batch_without_layer_spans() {
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm", 10, 60);
        t.span(w, "noc", "scatter", 30, 90);
        assert_matches_batch(&t);
    }

    #[test]
    fn streaming_matches_batch_on_empty_trace() {
        assert_matches_batch(&Tracer::new());
    }

    #[test]
    fn streaming_matches_batch_with_untraced_gaps_and_idle() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        let w = t.track("worker0");
        let n = t.track("noc");
        t.span(iter, "layer", "fwd", 0, 50);
        t.span(w, "ndp", "gemm", 0, 20); // gap [20, 50) is untraced
        t.span(n, "idle", "noc_idle", 0, 50);
        t.span(iter, "layer", "fwd", 50, 120);
        t.span(w, "ndp", "gemm", 50, 120);
        assert_matches_batch(&t);
    }

    #[test]
    fn bounded_top_k_matches_batch_truncation_on_ties() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        let w = t.track("worker0");
        t.span(iter, "layer", "fwd", 0, 1000);
        // Many equal-length spans: the boundary of the top-k is a tie.
        for i in 0..30u64 {
            t.span(w, "ndp", &format!("s{i}"), i * 10, i * 10 + 7);
        }
        assert_matches_batch(&t);
    }

    #[test]
    fn rejects_non_epoch_ordered_traces() {
        let mut an = StreamAnalyzer::new(4);
        an.event(&TraceEvent::Track {
            tid: 0,
            name: "iter".into(),
        })
        .unwrap();
        an.event(&TraceEvent::Span {
            tid: 0,
            cat: "layer".into(),
            name: "fwd".into(),
            start: 0,
            end: 100,
        })
        .unwrap();
        an.event(&TraceEvent::Span {
            tid: 0,
            cat: "ndp".into(),
            name: "gemm".into(),
            start: 50,
            end: 80,
        })
        .unwrap();
        // New epoch at 100 finalizes [0, 100) ...
        an.event(&TraceEvent::Span {
            tid: 0,
            cat: "layer".into(),
            name: "fwd".into(),
            start: 100,
            end: 200,
        })
        .unwrap();
        // ... so a span reaching back before 100 must be rejected.
        let err = an
            .event(&TraceEvent::Span {
                tid: 0,
                cat: "ndp".into(),
                name: "late".into(),
                start: 90,
                end: 120,
            })
            .expect_err("late span");
        assert!(err.contains("not epoch-ordered"), "{err}");
    }

    #[test]
    fn rejects_malformed_registrations() {
        let mut an = StreamAnalyzer::new(4);
        assert!(an
            .event(&TraceEvent::Span {
                tid: 3,
                cat: "ndp".into(),
                name: "x".into(),
                start: 0,
                end: 1,
            })
            .is_err());
        assert!(an
            .event(&TraceEvent::Track {
                tid: 5,
                name: "gap".into(),
            })
            .is_err());
    }
}
