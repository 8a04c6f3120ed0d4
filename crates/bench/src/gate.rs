//! Perf-regression gate over the bench trajectory
//! (`experiments --gate` / `--bless`).
//!
//! The committed `baselines/` directory holds one [`Baseline`] per bench
//! report: `BENCH_obs.baseline.json` bands the fully deterministic
//! simulated-cycle report (tight default tolerance — any model change
//! must be blessed), and `BENCH_par.baseline.json` bands only the
//! machine-independent keys of the wall-clock speedup report (exactly:
//! determinism and definitional invariants), and
//! `BENCH_serve.baseline.json` bands the deterministic counters and
//! byte-identity bit of the serve load report (latency and throughput
//! are never gated), and `BENCH_plan.baseline.json` bands the
//! parallelism auto-search sweep — deterministic plan identities
//! (`plan_key48`), cycle totals, validation bits and `opt.*` counters;
//! only the search wall-clock is exempt — and
//! `BENCH_kernels.baseline.json` bands the machine-independent keys of
//! the GEMM roofline report (shapes, FLOP counts, the
//! blocked-vs-reference bit-identity verdict); every GFLOP/s, ms and
//! peak figure is wall-clock and never gated.
//! `--gate` recomputes all reports in-memory, grades
//! them, and the caller turns a failing grade into a non-zero exit;
//! `--bless` rewrites the baselines from fresh reports after an
//! intentional perf change (see EXPERIMENTS.md).
//!
//! Besides the baseline rows, the gate runs a baseline-free
//! [`streaming_differential`] row: the obs-report trace replayed through
//! the streaming JSONL sink and the chunked single-pass analysis must
//! reproduce the in-memory chrome export byte-for-byte and the batch
//! (whole trace as one chunk) analysis report exactly, with the sink's
//! peak buffer inside its byte budget.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use wmpt_analyze::{flatten_numbers, Band, Baseline, CompareReport};
use wmpt_obs::json::{self, Value};

/// Directory (relative to the repo root) holding committed baselines.
pub const BASELINE_DIR: &str = "baselines";
/// Baseline file for `BENCH_obs.json`.
pub const OBS_BASELINE: &str = "BENCH_obs.baseline.json";
/// Baseline file for `BENCH_par.json`.
pub const PAR_BASELINE: &str = "BENCH_par.baseline.json";
/// Baseline file for `BENCH_serve.json`.
pub const SERVE_BASELINE: &str = "BENCH_serve.baseline.json";
/// Baseline file for `BENCH_plan.json`.
pub const PLAN_BASELINE: &str = "BENCH_plan.baseline.json";
/// Baseline file for `BENCH_kernels.json`.
pub const KERNELS_BASELINE: &str = "BENCH_kernels.baseline.json";

/// Default relative tolerance for the deterministic obs report. The
/// simulated cycle counts are exact, but a small band keeps the gate
/// robust to float-formatting noise while still catching any real
/// model drift.
const OBS_TOL: f64 = 0.02;

/// Machine-independent keys of `BENCH_par.json`: the determinism
/// contract and definitional invariants, banded exactly. Wall-clock ms
/// and the host-dependent tail of the jobs ladder are deliberately
/// not gated.
const PAR_STABLE_KEYS: &[&str] = &[
    "bit_identical",
    "reps",
    "rows.0.jobs",
    "rows.0.speedup",
    "rows.0.efficiency",
];

/// Flat, gateable view of the obs report: everything numeric except the
/// `phases` rollup rows and histogram bucket vectors, whose array
/// indices shift whenever a span category is added (the aggregate
/// metrics already cover their content).
pub fn obs_gate_metrics(report: &Value) -> BTreeMap<String, f64> {
    flatten_numbers(report)
        .into_iter()
        .filter(|(k, _)| !k.starts_with("phases.") && !k.contains(".buckets."))
        .collect()
}

/// Flat, gateable view of the par report: [`PAR_STABLE_KEYS`] only.
pub fn par_gate_metrics(report: &Value) -> BTreeMap<String, f64> {
    let flat = flatten_numbers(report);
    PAR_STABLE_KEYS
        .iter()
        .filter_map(|&k| flat.get(k).map(|&v| (k.to_string(), v)))
        .collect()
}

/// Machine-independent keys of `BENCH_serve.json`: the request mix and
/// every server counter (all fully determined by the fixed workload),
/// plus the cross-boundary byte-identity bit. Latency percentiles and
/// throughput are wall-clock and deliberately not gated.
const SERVE_STABLE_KEYS: &[&str] = &[
    "distinct",
    "warm_rounds",
    "warm_identical",
    "counters.requests",
    "counters.cache_hits",
    "counters.cache_misses",
    "counters.jobs_executed",
    "counters.evictions",
    "counters.coalesced",
    "counters.rejected_overload",
    "lifecycle.requests",
    "lifecycle.executed",
    "lifecycle.hits",
    "lifecycle.jobs",
    "lifecycle.queue_waits",
    "lifecycle.attribution_ok",
    "cold.count",
    "warm.count",
];

/// Flat, gateable view of the serve report: [`SERVE_STABLE_KEYS`] only.
pub fn serve_gate_metrics(report: &Value) -> BTreeMap<String, f64> {
    let flat = flatten_numbers(report);
    SERVE_STABLE_KEYS
        .iter()
        .filter_map(|&k| flat.get(k).map(|&v| (k.to_string(), v)))
        .collect()
}

/// Flat, gateable view of the plan-search report: everything (cycle
/// totals, validation bits, `opt.*` counters, and the deterministic
/// `plan_key48` plan identities) except the wall-clock `search_ms`.
pub fn plan_gate_metrics(report: &Value) -> BTreeMap<String, f64> {
    flatten_numbers(report)
        .into_iter()
        .filter(|(k, _)| !k.ends_with("search_ms"))
        .collect()
}

/// Machine-independent view of the kernels roofline report: shapes,
/// FLOP counts, rep count and the blocked-vs-reference `bit_identical`
/// verdict. Every wall-clock-derived key — `*_ms`, `*gflops`, per-shape
/// `speedup` and `frac_peak` — is filtered out, mirroring the par-report
/// rule.
pub fn kernels_gate_metrics(report: &Value) -> BTreeMap<String, f64> {
    flatten_numbers(report)
        .into_iter()
        .filter(|(k, _)| {
            !k.ends_with("_ms")
                && !k.ends_with("gflops")
                && !k.ends_with("speedup")
                && !k.ends_with("frac_peak")
        })
        .collect()
}

/// Computes fresh reports and writes both baselines into `dir`
/// (creating it), returning the written paths.
pub fn bless(dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let obs = Baseline::from_metrics(
        "BENCH_obs",
        &obs_gate_metrics(&crate::obs_report::obs_report()),
        OBS_TOL,
    );
    let par = Baseline::from_metrics(
        "BENCH_par",
        &par_gate_metrics(&crate::par_speedup::par_report()),
        0.0,
    );
    let serve = Baseline::from_metrics(
        "BENCH_serve",
        &serve_gate_metrics(&crate::serve_load::serve_report()),
        0.0,
    );
    let plan = Baseline::from_metrics(
        "BENCH_plan",
        &plan_gate_metrics(&crate::plan_search::plan_report()),
        0.0,
    );
    let kernels = Baseline::from_metrics(
        "BENCH_kernels",
        &kernels_gate_metrics(&crate::kernels::kernels_report()),
        0.0,
    );
    let mut written = Vec::new();
    for (file, base) in [
        (OBS_BASELINE, &obs),
        (PAR_BASELINE, &par),
        (SERVE_BASELINE, &serve),
        (PLAN_BASELINE, &plan),
        (KERNELS_BASELINE, &kernels),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, base.to_json().render() + "\n")?;
        written.push(path);
    }
    Ok(written)
}

/// The gate's outcome: a rendered report and the pass/fail verdict.
pub struct GateOutcome {
    /// Human-readable comparison tables for both reports.
    pub text: String,
    /// `true` when no gated metric regressed beyond its band.
    pub passed: bool,
}

fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e} (run --bless first?)", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Baseline::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Pending-output byte budget of the differential's streaming sink —
/// small enough that the obs-report trace forces many flushes.
const STREAM_BUDGET: usize = 1024;

/// Replays the deterministic obs-report trace through the streaming
/// JSONL sink and the analyzer chunk by chunk, then diffs both against
/// the in-memory path: the chrome exports must be byte-identical, the
/// chunked analysis must equal the single-chunk [`Analysis::of_trace`],
/// and the sink's peak buffer must stay within [`STREAM_BUDGET`]. `Err`
/// carries the first divergence.
///
/// [`Analysis::of_trace`]: wmpt_analyze::Analysis::of_trace
pub fn streaming_differential() -> Result<(), String> {
    use wmpt_analyze::{analyze_jsonl, Analysis};
    use wmpt_obs::{SpanSink, StreamingTracer};

    let (obs, _) = crate::obs_report::obs_report_observer();
    let dir = std::env::temp_dir().join(format!("wmpt_gate_stream_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
    let jsonl = dir.join("obs_report.jsonl");
    let chrome_s = dir.join("obs_report_stream.json");
    let chrome_m = dir.join("obs_report_mem.json");
    let run = || -> Result<(), String> {
        let mut sink = StreamingTracer::create(&jsonl, STREAM_BUDGET)
            .map_err(|e| format!("create jsonl: {e}"))?;
        sink.append_offset(&obs.trace, 0);
        let stats = sink
            .finalize_chrome(&chrome_s)
            .map_err(|e| format!("finalize: {e}"))?;
        obs.trace
            .write_chrome_trace(&chrome_m)
            .map_err(|e| format!("in-memory export: {e}"))?;
        let a = std::fs::read(&chrome_s).map_err(|e| e.to_string())?;
        let b = std::fs::read(&chrome_m).map_err(|e| e.to_string())?;
        if a != b {
            return Err("streamed chrome export differs from in-memory".into());
        }
        if stats.peak_buffer_bytes > STREAM_BUDGET {
            return Err(format!(
                "peak buffer {} bytes exceeds budget {STREAM_BUDGET}",
                stats.peak_buffer_bytes
            ));
        }
        let streamed = analyze_jsonl(&jsonl).map_err(|e| format!("streaming analysis: {e}"))?;
        let batch = Analysis::of_trace(&obs.trace);
        if streamed.metrics() != batch.metrics() {
            return Err("streaming analysis metrics differ from batch".into());
        }
        if streamed.render() != batch.render() {
            return Err("streaming analysis report differs from batch".into());
        }
        Ok(())
    };
    let result = run();
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// A fresh-report producer in the gate's flat metric space.
type FreshMetrics = fn() -> BTreeMap<String, f64>;

/// Recomputes both bench reports and grades them against the baselines
/// in `dir`. `Err` means the gate could not run (missing/corrupt
/// baseline), which callers should also treat as failure.
pub fn run_gate(dir: &Path) -> Result<GateOutcome, String> {
    let checks: [(&str, &str, FreshMetrics); 5] = [
        ("BENCH_obs", OBS_BASELINE, || {
            obs_gate_metrics(&crate::obs_report::obs_report())
        }),
        ("BENCH_par", PAR_BASELINE, || {
            par_gate_metrics(&crate::par_speedup::par_report())
        }),
        ("BENCH_serve", SERVE_BASELINE, || {
            serve_gate_metrics(&crate::serve_load::serve_report())
        }),
        ("BENCH_plan", PLAN_BASELINE, || {
            plan_gate_metrics(&crate::plan_search::plan_report())
        }),
        ("BENCH_kernels", KERNELS_BASELINE, || {
            kernels_gate_metrics(&crate::kernels::kernels_report())
        }),
    ];
    let mut text = String::new();
    let mut passed = true;
    for (name, file, fresh) in checks {
        let baseline = load_baseline(&dir.join(file))?;
        let report: CompareReport = baseline.compare(&fresh());
        passed &= report.passed();
        let _ = writeln!(text, "== {name} vs {file}: {} ==", report.worst().name());
        text.push_str(&report.render_table(false));
    }
    // Baseline-free equivalence oracle: streaming sinks and analytics
    // must reproduce the in-memory path exactly.
    match streaming_differential() {
        Ok(()) => {
            let _ = writeln!(text, "== BENCH_obs streaming vs batch: pass ==");
        }
        Err(e) => {
            passed = false;
            let _ = writeln!(text, "== BENCH_obs streaming vs batch: FAIL — {e} ==");
        }
    }
    Ok(GateOutcome { text, passed })
}

/// Perturbs one band of a serialized baseline document by `factor` —
/// test hook for proving the gate trips (kept here so integration tests
/// and CI share one implementation).
pub fn perturb_baseline(doc: &Value, key: &str, factor: f64) -> Option<Value> {
    let base = Baseline::from_json(doc).ok()?;
    let mut bands = base.bands;
    let band = bands.get_mut(key)?;
    *band = Band {
        value: band.value * factor,
        tol: band.tol,
    };
    Some(
        Baseline {
            name: base.name,
            bands,
        }
        .to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_gate_metrics_cover_analysis_but_not_phase_indices() {
        let m = obs_gate_metrics(&crate::obs_report::obs_report());
        assert!(m.contains_key("total_cycles"));
        assert!(m.contains_key("analysis.critpath.total_cycles"));
        assert!(m.contains_key("analysis.util.grid"));
        assert!(m.keys().all(|k| !k.starts_with("phases.")));
        assert!(m.keys().all(|k| !k.contains(".buckets.")));
        assert!(m.len() > 30, "only {} gated keys", m.len());
    }

    #[test]
    fn bless_then_gate_passes_and_perturbation_fails() {
        let dir = std::env::temp_dir().join(format!("wmpt_gate_test_{}", std::process::id()));
        let written = bless(&dir).expect("bless writes baselines");
        assert_eq!(written.len(), 5);
        let outcome = run_gate(&dir).expect("gate runs");
        assert!(outcome.passed, "clean gate failed:\n{}", outcome.text);

        // Perturb one deterministic band beyond tolerance: must fail.
        let path = dir.join(OBS_BASELINE);
        let doc =
            json::parse(&std::fs::read_to_string(&path).expect("read")).expect("baseline parses");
        let bad = perturb_baseline(&doc, "total_cycles", 1.5).expect("key exists");
        std::fs::write(&path, bad.render()).expect("rewrite");
        let outcome = run_gate(&dir).expect("gate runs");
        assert!(!outcome.passed, "perturbed gate passed:\n{}", outcome.text);
        assert!(outcome.text.contains("FAIL"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_differential_holds() {
        streaming_differential().expect("streaming path must match the in-memory path");
    }

    #[test]
    fn gate_without_baselines_is_an_error() {
        let dir = std::env::temp_dir().join("wmpt_gate_test_missing");
        std::fs::remove_dir_all(&dir).ok();
        assert!(run_gate(&dir).is_err());
    }
}
