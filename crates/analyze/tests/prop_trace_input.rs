//! Totality of the analyze input path on the `wmpt-check` harness:
//! chrome-trace documents whose numeric fields take extreme values (0,
//! 2^53, 2^64, 1e30, negatives, fractions) go through
//! `Tracer::from_chrome_trace`, `Analysis::of_trace` and the SVG
//! timeline — the path a served `analyze` job runs — and come back `Ok`
//! or `Err`, never a panic.

use wmpt_analyze::{timeline_svg, Analysis};
use wmpt_check::{check, Case};
use wmpt_obs::json::{num, obj, s, Value};
use wmpt_obs::Tracer;

const EXTREMES: [f64; 9] = [
    0.0,
    1.0,
    0.5,
    9_007_199_254_740_992.0,      // 2^53
    18_446_744_073_709_551_616.0, // 2^64
    1e30,
    -1.0,
    -1e30,
    1e3,
];

fn extreme(c: &mut Case) -> Value {
    num(*c.pick(&EXTREMES))
}

/// A chrome document with a few tracks and spans whose `tid`, `ts`,
/// `dur`, `args.start_cycle` and `args.cycles` are each either absent,
/// small, or extreme.
fn extreme_doc(c: &mut Case) -> Value {
    let mut events = Vec::new();
    for tid in 0..c.size(1, 3) {
        events.push(obj(vec![
            ("ph", s("M")),
            ("name", s("thread_name")),
            ("tid", num(tid as f64)),
            ("args", obj(vec![("name", s(&format!("t{tid}")))])),
        ]));
    }
    let cats = ["layer", "ndp", "noc", "collective", "dram", "idle"];
    for _ in 0..c.size(0, 8) {
        let tid = if c.ratio() < 0.1 {
            extreme(c)
        } else {
            num(c.u64_in(0, 2) as f64)
        };
        let cat = *c.pick(&cats);
        let mut ev = vec![
            ("ph", s("X")),
            ("name", s("span")),
            ("cat", s(cat)),
            ("tid", tid),
        ];
        for key in ["ts", "dur"] {
            if c.bool() {
                ev.push((key, extreme(c)));
            }
        }
        let mut args = Vec::new();
        for key in ["start_cycle", "cycles"] {
            if c.bool() {
                args.push((key, extreme(c)));
            }
        }
        ev.push(("args", obj(args)));
        events.push(obj(ev));
    }
    obj(vec![("traceEvents", Value::Arr(events))])
}

#[test]
fn extreme_chrome_fields_never_panic() {
    check("extreme_chrome_fields_never_panic", |c| {
        let doc = extreme_doc(c);
        if let Ok(trace) = Tracer::from_chrome_trace(&doc) {
            let a = Analysis::of_trace(&trace);
            assert_eq!(a.attribution.values().sum::<u64>(), a.total);
            assert!(!a.render().is_empty());
            assert!(timeline_svg(&trace).starts_with("<svg"));
        }
    });
}
