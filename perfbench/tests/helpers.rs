//! Tests of the benchmark's own helpers: the percentile rule, seeded
//! generation, span self time, host-speed scaling, and the debug-build
//! refusal.

use perfbench::rng::{SplitMix64, Zipf};
use perfbench::serve::{Catalog, Mix, Planned, CLIENTS, HIT_SHARE, MISS_EVERY, OPS_PER_SLICE};
use perfbench::spans::{layer_self_ns, self_times, Span, Spans};
use perfbench::speed::{at_reference_speed, idle_check, Echo, Probe, Stopwatch, REFERENCE_MS};
use perfbench::stamp::{build_profile, require_release};
use perfbench::stats::{median, percentile, quantile};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond() {
    assert_eq!(percentile(&ramp(999), 0.99), None);
    assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    assert_eq!(percentile(&ramp(99), 0.90), None);
    assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
    assert_eq!(percentile(&ramp(19), 0.50), None);
    assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn percentile_ignores_input_order() {
    let mut v = ramp(200);
    SplitMix64::new(3).shuffle(&mut v);
    assert_eq!(percentile(&v, 0.90), Some(180.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn quantile_reports_count_or_names_the_shortfall() {
    let q = quantile("lat", &ramp(100), 0.9).expect("enough samples");
    assert_eq!((q.value, q.count), (90.0, 100));
    let err = quantile("lat", &ramp(50), 0.9).expect_err("too few");
    assert!(err.contains("lat") && err.contains("p90"), "{err}");
}

#[test]
fn zipf_sequence_is_deterministic_for_a_seed() {
    let z = Zipf::new(10_000, 1.4);
    let draw = |seed| {
        let mut rng = SplitMix64::derive(seed, 100);
        (0..500).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    assert!(draw(7).iter().all(|&r| r < 10_000));
}

#[test]
fn zipf_favours_low_ranks() {
    let z = Zipf::new(1000, 1.4);
    let mut rng = SplitMix64::new(1);
    let n = 20_000;
    let head = (0..n).filter(|_| z.sample(&mut rng) < 10).count();
    let weight = |k: usize| 1.0 / (k as f64).powf(1.4);
    let expected = (1..=10).map(weight).sum::<f64>() / (1..=1000).map(weight).sum::<f64>();
    assert!(
        (head as f64 / n as f64 - expected).abs() < 0.02,
        "{head} of {n} vs mass {expected}"
    );
}

#[test]
fn ranks_holding_counts_the_top_ranks() {
    let z = Zipf::new(4, 1.0);
    // Masses 12/25, 6/25, 4/25, 3/25.
    assert_eq!(z.ranks_holding(0.0), 1);
    assert_eq!(z.ranks_holding(0.48), 1);
    assert_eq!(z.ranks_holding(0.5), 2);
    assert_eq!(z.ranks_holding(0.8), 3);
    assert_eq!(z.ranks_holding(1.0), 4);
}

/// The first `cycles` cycles of client `idx`'s mix for `seed`.
fn planned(seed: u64, idx: usize, cycles: usize) -> Vec<Planned> {
    let cat = Catalog::new(seed);
    let mut mix = Mix::new(seed, idx);
    (0..cycles * OPS_PER_SLICE)
        .map(|_| mix.next(&cat))
        .collect()
}

#[test]
fn every_cycle_has_the_same_mix() {
    let head = Catalog::new(3).head_len();
    for idx in 0..CLIENTS {
        let ops = planned(3, idx, 20);
        for cycle in ops.chunks(OPS_PER_SLICE) {
            let count = |f: &dyn Fn(&Planned) -> bool| cycle.iter().filter(|p| f(p)).count();
            let submit = |p: &Planned, tail: bool| matches!(*p, Planned::Submit { rank } if (rank >= head) == tail);
            assert_eq!(count(&|p| matches!(p, Planned::Health | Planned::Prom)), 1);
            assert_eq!(
                count(&|p| matches!(p, Planned::Artifact { rank: None, .. })),
                1
            );
            assert_eq!(
                count(&|p| matches!(p, Planned::Artifact { rank: Some(_), .. })),
                3
            );
            assert_eq!(count(&|p| submit(p, true)), 45 / MISS_EVERY);
            assert_eq!(count(&|p| submit(p, false)), 45 - 45 / MISS_EVERY);
        }
    }
    let hit_share = 1.0 - 1.0 / MISS_EVERY as f64;
    assert!(HIT_SHARE.0 <= hit_share && hit_share <= HIT_SHARE.1);
}

#[test]
fn mix_is_deterministic_and_tail_keys_never_repeat() {
    assert_eq!(planned(5, 0, 10), planned(5, 0, 10));
    assert_ne!(planned(5, 0, 10), planned(6, 0, 10));
    let head = Catalog::new(5).head_len();
    let mut tails = std::collections::HashSet::new();
    for idx in 0..CLIENTS {
        for p in planned(5, idx, 40) {
            if let Planned::Submit { rank } = p {
                assert!(
                    rank < head || tails.insert(rank),
                    "tail rank {rank} repeated"
                );
            }
        }
    }
    assert_eq!(tails.len(), CLIENTS * 40 * (45 / MISS_EVERY));
}

#[test]
fn request_catalog_is_deterministic_for_a_seed() {
    let bodies = |seed| {
        let c = Catalog::new(seed);
        (0..150).map(|r| c.key(r).body).collect::<Vec<_>>()
    };
    assert_eq!(bodies(5), bodies(5));
    assert_ne!(bodies(5), bodies(6));
}

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    let spans = [
        span("bench.root", 0, 100, None),
        span("winograd.fprop", 10, 40, Some(0)),
        span("tensor.gemm", 20, 30, Some(1)),
    ];
    assert_eq!(self_times(&spans), [70, 20, 10]);
    let by_layer = layer_self_ns(&spans);
    assert_eq!(by_layer["bench"], 70);
    assert_eq!(by_layer["winograd"], 20);
    assert_eq!(by_layer["tensor"], 10);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = [
        span("bench.pass", 0, 100, None),
        span("serve.submit", 10, 50, Some(0)),
        span("serve.submit", 30, 70, Some(0)),
        // Concurrent child running past its parent's end is clipped.
        span("serve.submit", 90, 120, Some(0)),
    ];
    assert_eq!(self_times(&spans), [100 - 60 - 10, 40, 40, 30]);
}

#[test]
fn recorder_nests_and_adopts_thread_spans() {
    let mut sp = Spans::recording();
    sp.time("bench.pass", |sp| {
        let mut worker = sp.fork();
        worker.time("serve.submit", |_| ());
        sp.adopt(worker);
        sp.time("obs.render", |_| ());
    });
    let s = sp.spans();
    assert_eq!(s.len(), 3);
    assert_eq!(s[0].parent, None);
    assert_eq!((s[1].name.as_str(), s[1].parent), ("serve.submit", Some(0)));
    assert_eq!((s[2].name.as_str(), s[2].parent), ("obs.render", Some(0)));
    assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    let mut off = Spans::disabled();
    assert_eq!(off.time("bench.pass", |_| 5), 5);
    assert!(off.spans().is_empty());
}

#[test]
fn reference_speed_divides_by_the_probe_slowdown() {
    // Passes around the interval twice the reference: half the time.
    let slow = at_reference_speed(100.0, 0.0, 2.0, 2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS);
    assert!((slow - 50.0).abs() < 1e-9, "{slow}");
    // The mean of the two passes counts.
    let mixed = at_reference_speed(100.0, 0.0, 2.0, 0.5 * REFERENCE_MS, 1.5 * REFERENCE_MS);
    assert!((mixed - 100.0).abs() < 1e-9, "{mixed}");
    // 60 ms stolen over 2 CPUs, one 10 ms tick each ignored: 20 ms less.
    let stolen = at_reference_speed(100.0, 60.0, 2.0, REFERENCE_MS, REFERENCE_MS);
    assert!((stolen - 80.0).abs() < 1e-9, "{stolen}");
    assert_eq!(
        at_reference_speed(100.0, 15.0, 2.0, REFERENCE_MS, REFERENCE_MS),
        100.0
    );
}

#[test]
fn stopwatch_runs_a_pass_on_each_side() {
    let mut p = Probe::default();
    let watch = Stopwatch::start(&mut p);
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (wall, at_ref) = watch.read(&mut p);
    assert!(wall >= 20.0 && at_ref > 0.0, "{wall} {at_ref}");
    assert_eq!(p.summary().0, 2);
    // The pass after one interval is the pass before the next.
    let watch = Stopwatch::start(&mut p);
    let _ = watch.read(&mut p);
    assert_eq!(p.summary().0, 3);
}

#[test]
fn echo_times_round_trips_and_stops() {
    let mut echo = Echo::start().expect("bind the echo on loopback");
    assert!(echo.pass().expect("echo round trips") > 0.0);
    assert!(echo.pass().expect("echo round trips") > 0.0);
    assert!(echo.median_us() > 0.0);
    // Dropping stops and joins the accepting thread.
    drop(echo);
}

#[test]
fn probe_times_its_passes() {
    let mut p = Probe::default();
    assert!(p.slowdown().is_err(), "no passes yet");
    for _ in 0..5 {
        p.pass();
    }
    assert_eq!(p.summary().0, 5);
    assert!(p.median_ms() > 0.0);
    // Other tests run on other threads of this process, so the idle
    // check is exercised on numbers: accounting noise passes, a second
    // busy thread does not.
    assert!(idle_check(130.0, 100.0).is_ok());
    assert!(idle_check(300.0, 100.0).is_err());
}

#[test]
fn probe_refuses_a_busy_process() {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut p = Probe::default();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        // Long enough for the spinner's CPU time to clear the slack.
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 400 {
            p.pass();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let err = p
        .slowdown()
        .expect_err("a spinning thread ran during the probe");
    assert!(err.contains("between slices"), "{err}");
}

#[test]
fn debug_builds_are_refused() {
    assert!(require_release("debug").is_err());
    assert!(require_release("release").is_ok());
    assert_eq!(
        require_release(build_profile()).is_err(),
        cfg!(debug_assertions)
    );
}

#[test]
fn debug_binary_exits_without_a_result() {
    if !cfg!(debug_assertions) {
        return; // The binary under test is a release build here.
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "train_step", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    assert!(String::from_utf8_lossy(&out.stderr).contains("refusing"));
}
