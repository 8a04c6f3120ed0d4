//! Streaming-analytics equivalence properties on the `wmpt-check`
//! harness: for random epoch-structured traces (back-to-back layer
//! windows with arbitrary worker/NoC/collective spans inside each,
//! including window-overflowing tails, zero-length spans, and traces
//! with no layer windows at all), the chunked single-pass JSONL analysis
//! equals the batch [`Analysis::of_trace`], which runs the same engine
//! over the whole trace as one chunk — same flat metrics, same rendered
//! report.
//!
//! Failures shrink toward the fewest epochs/spans and the smallest
//! cycle values, and replay via `WMPT_CHECK_REPLAY`.

use std::path::PathBuf;

use wmpt_analyze::{analyze_jsonl, Analysis};
use wmpt_check::{check, Case};
use wmpt_obs::{SpanSink, StreamingTracer, Tracer};

/// A random trace shaped like the simulator's output: each layer's
/// `layer forward`/`layer backward` pair lands first, then that layer's
/// subsystem spans, so the JSONL stream is epoch-ordered by
/// construction. With small probability the layer windows are omitted
/// entirely, exercising the whole-extent fallback domain.
fn random_epoch_tracer(c: &mut Case) -> Tracer {
    let mut t = Tracer::new();
    let iter = t.track("iter");
    let w0 = t.track("worker0");
    let noc = t.track("noc");
    let coll = t.track("collective");
    let tracks = [w0, noc, coll];
    // No `layer` here: random layer spans would not be epoch-shaped.
    let cats = ["ndp", "noc", "collective", "dram", "idle"];
    let names = ["gemm", "scatter", "reduce", "stall", "noc_idle"];
    let with_layers = c.ratio() > 0.1;
    let mut base = 0u64;
    for _ in 0..c.size(1, 5) {
        let fwd = c.u64_in(1, 5_000);
        let total = fwd + c.u64_in(1, 5_000);
        if with_layers {
            t.span(iter, "layer", "forward", base, base + fwd);
            t.span(iter, "layer", "backward", base + fwd, base + total);
        }
        for _ in 0..c.size(0, 8) {
            let track = *c.pick(&tracks);
            let cat = *c.pick(&cats);
            let name = *c.pick(&names);
            let start = base + c.u64_in(0, total - 1);
            let dur = c.u64_in(0, total); // tails may overflow the window
            t.span(track, cat, name, start, start + dur);
        }
        base += total;
    }
    t
}

#[test]
fn streaming_jsonl_analysis_matches_batch() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("wmpt_prop_stream_analyze_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    check("streaming_jsonl_analysis_matches_batch", |c| {
        let t = random_epoch_tracer(c);
        let jsonl = dir.join("t.jsonl");
        let mut s = StreamingTracer::create(&jsonl, 256).expect("create jsonl");
        SpanSink::append_offset(&mut s, &t, 0);
        s.finalize().expect("finalize");

        let streamed = analyze_jsonl(&jsonl).expect("epoch-ordered stream analyzes");
        let batch = Analysis::of_trace(&t);
        assert_eq!(streamed.metrics(), batch.metrics(), "flat metrics diverge");
        assert_eq!(
            streamed.render(),
            batch.render(),
            "rendered reports diverge"
        );
    });
}
