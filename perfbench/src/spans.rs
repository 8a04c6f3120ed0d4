//! In-memory span recording for the traced pass.
//!
//! The benchmark wraps each call it makes into a layer's public
//! functions in a span named `<layer>.<operation>` (`winograd.input_tf`,
//! `opt.search`, `serve.submit`, ...). Spans nest by a per-thread stack;
//! a worker thread's recorder is adopted into its parent's afterwards,
//! which is how concurrent (overlapping) children arise.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: String,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (`end_ns >= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled recorder records nothing, so the same
/// workload code serves the untraced and traced passes.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recording recorder with its own epoch.
    pub fn recording() -> Self {
        Self::with_epoch(Instant::now(), true)
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Self::with_epoch(Instant::now(), false)
    }

    fn with_epoch(epoch: Instant, enabled: bool) -> Self {
        Spans {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A fresh recorder for another thread: same epoch, same mode.
    pub fn fork(&self) -> Self {
        Self::with_epoch(self.epoch, self.enabled)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (nothing is recorded when
    /// disabled).
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        r
    }

    /// Records an interval measured elsewhere (e.g. by a client around a
    /// request) as a child of the current span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.stack.last().copied(),
        });
    }

    /// Moves another recorder's spans (same epoch) under the current
    /// span: its roots become children of the innermost open span here.
    pub fn adopt(&mut self, other: Spans) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        let top = self.stack.last().copied();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => top,
            };
            self.spans.push(s);
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children (concurrent work) are
/// counted once, so self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self time summed per layer, in ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0) += t;
    }
    out
}

/// Indices of the spans under `root` (excluding it), in recording order.
pub fn descendants(spans: &[Span], root: usize) -> Vec<usize> {
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    let mut out = Vec::new();
    // Children are always recorded after their parent.
    for i in root + 1..spans.len() {
        if let Some(p) = spans[i].parent {
            if inside[p] {
                inside[i] = true;
                out.push(i);
            }
        }
    }
    out
}

/// Total duration per span name over `ids`, in ns.
pub fn totals_by_name(spans: &[Span], ids: &[usize]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for &i in ids {
        *out.entry(spans[i].name.clone()).or_insert(0) += spans[i].dur_ns();
    }
    out
}

/// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out.push(']');
    out
}
