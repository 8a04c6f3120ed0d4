//! `perfbench --workload <train_step|serve_zipf> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Runs the three phases (`train_step`, `sim_sweep`, `serve_zipf`)
//! interleaved for `--seconds`, the named one taking 40 % of the time
//! and the others 30 % each (see `phase.rs`), so every run reports every
//! end-to-end metric. With `--trace 1` the first half of the time is
//! measured untraced and the second half traced, and the run reports the
//! per-layer metrics instead. The last line of standard output is the
//! JSON result; everything before it is the run stamp and human-readable
//! detail. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_step --seed 1 --seconds 50 --trace 0
//! ```

use std::path::Path;
use std::process::ExitCode;

use perfbench::out::{peak_rss_mb, result_line, Metrics};
use perfbench::phase::{schedule, Phase};
use perfbench::serve::Serve;
use perfbench::sim::Sim;
use perfbench::spans::{self, Span};
use perfbench::speed::{self, Probe, Stopwatch};
use perfbench::stamp;
use perfbench::stats::median;
use perfbench::train::Train;

/// The phases, in schedule order. Every run runs all three.
const PHASES: [&str; 3] = ["train_step", "sim_sweep", "serve_zipf"];
/// The workloads a run can be named after: the phase that gets the
/// larger share of the time and whose set-up is timed.
const WORKLOADS: [&str; 2] = ["train_step", "serve_zipf"];
/// Set-ups of the named workload, for the median `setup_s`.
const SETUPS: usize = 5;
/// Share of the run's time the named workload gets; the other two
/// phases split the rest.
const MAIN_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn set_up(name: &str, seed: u64) -> Result<Box<dyn Phase>, String> {
    Ok(match name {
        "train_step" => Box::new(Train::new(seed)?),
        "sim_sweep" => Box::new(Sim::new(seed)?),
        _ => Box::new(Serve::new(seed)?),
    })
}

/// Self time per layer as a share of the phase's total self time.
fn self_share_metrics(phase: &str, sp: &[Span]) -> Metrics {
    let by_layer = spans::layer_self_ns(sp);
    let total = by_layer.values().sum::<u64>().max(1) as f64;
    let mut m = Metrics::default();
    for (layer, ns) in by_layer {
        m.put(
            format!("bench.self_share.{phase}.{layer}"),
            ns as f64 / total,
            "ratio",
        );
        println!("self time {phase}/{layer}: {:.1} ms", ns as f64 / 1e6);
    }
    m
}

type Outcome = (Metrics, u64, u64, Vec<(String, Vec<Span>)>);

fn run(args: &Args) -> Result<Outcome, String> {
    // Set-up: the named workload several times (median reported, at the
    // reference speed), the others once.
    let mut probe = Probe::default();
    let mut phases = Vec::new();
    let mut setup_times = Vec::new();
    for name in PHASES {
        let reps = if name == args.workload { SETUPS } else { 1 };
        let mut phase = None;
        for _ in 0..reps {
            let watch = Stopwatch::start(&mut probe);
            let p = set_up(name, args.seed)?;
            let at_ref_ms = watch.read(&mut probe).1;
            if name == args.workload {
                setup_times.push(at_ref_ms / 1e3);
            }
            phase = Some(p);
        }
        phases.push(phase.expect("at least one set-up"));
    }
    let weights: Vec<f64> = PHASES
        .iter()
        .map(|&w| {
            if w == args.workload {
                MAIN_SHARE
            } else {
                (1.0 - MAIN_SHARE) / 2.0
            }
        })
        .collect();
    let seconds = args.seconds as f64;
    if args.trace {
        schedule(&mut phases, &weights, seconds / 2.0, false, &mut probe)?;
        for p in &mut phases {
            p.begin_trace()?;
        }
        schedule(&mut phases, &weights, seconds / 2.0, true, &mut probe)?;
    } else {
        schedule(&mut phases, &weights, seconds, false, &mut probe)?;
    }
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut traces = Vec::new();
    for p in &mut phases {
        println!("== {}", p.name());
        e2e.extend(p.e2e()?);
        if args.trace {
            layers.extend(p.layers()?);
            layers.extend(self_share_metrics(p.name(), p.spans()));
        }
        let (a, f) = p.finish()?;
        attempted += a;
        failed += f;
        traces.push((p.name().to_string(), p.spans().to_vec()));
    }
    drop(phases);
    e2e.put("setup_s", median(&setup_times), "s");
    e2e.put(
        "peak_rss_mb",
        peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
        "MiB",
    );
    let ok = 1.0 - failed as f64 / attempted.max(1) as f64;
    e2e.put("ok_ratio", ok, "ratio");
    println!(
        "fail_ratio = {} ({failed} failed of {attempted} attempted)",
        1.0 - ok
    );
    let slowdown = probe.slowdown()?;
    let (passes, cpu, wall) = probe.summary();
    println!(
        "host speed: median probe pass {:.4} ms of {passes} ({cpu:.0} ms process CPU in \
         {wall:.0} ms), {slowdown:.4} x the reference {} ms; timings are reported at the \
         reference speed",
        probe.median_ms(),
        speed::REFERENCE_MS
    );
    let reported = if args.trace { layers } else { e2e };
    for m in &reported.0 {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    Ok((reported, attempted, failed, traces))
}

/// Writes the stamp, result and spans under `perfbench/out/`.
fn write_out(args: &Args, stamp: &str, result: &str, traces: &[(String, Vec<Span>)]) {
    let dir = Path::new("perfbench").join("out");
    let spans_json = traces
        .iter()
        .map(|(p, s)| format!("\"{p}\": {}", spans::to_json(s)))
        .collect::<Vec<_>>()
        .join(",\n");
    let doc =
        format!("{{\"stamp\": {stamp},\n\"result\": {result},\n\"spans\": {{{spans_json}}}}}\n");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, doc)) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = stamp::require_release(stamp::build_profile()) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let stamp = stamp::stamp_json(
        Path::new("."),
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
    );
    println!("stamp: {stamp}");
    match run(&args).and_then(|(m, attempted, failed, traces)| {
        let line = result_line(true, attempted, failed, &m)?;
        Ok((line, traces))
    }) {
        Ok((line, traces)) => {
            write_out(&args, &stamp, &line, &traces);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
