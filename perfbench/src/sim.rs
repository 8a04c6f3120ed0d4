//! `sim_sweep`: a fixed catalog of cold `wmpt_serve::run_request` calls
//! on a 2-job pool — the CLI's path, with no HTTP and no cache.
//!
//! The untraced pass runs the catalog through `run_request` and digests
//! every artifact. The traced pass makes the same calls into the layers'
//! public functions that `run_request` makes (simulation, planning,
//! fault injection, rendering, analysis), each in its own span, and
//! checks every item against `run_request`'s output for it: the sweeps'
//! traces, metrics and SVGs by digest, the `noc` rows, the rendered
//! plans, the fixed-config costs and oracle counts of `plan_auto`, the
//! `faults` resilience line and metrics, and the `analyze` report and
//! SVG. A copy that drifts from `run_request` fails the run.

use std::collections::BTreeMap;
use std::hint::black_box;

use wmpt_analyze::{timeline_svg, Analysis};
use wmpt_core::{
    plan_network, simulate_layer_observed, simulate_network_observed, SystemConfig, SystemModel,
};
use wmpt_fault::{demo_dataset, train_resilient, FaultPlan, GridShape, ResilienceConfig, Scenario};
use wmpt_models::table2_layers;
use wmpt_noc::{latency_throughput_sweep, LinkKind, Topology, TrafficPattern};
use wmpt_obs::{json, MetricRegistry, MetricShards, Observer, Tracer};
use wmpt_par::ParPool;
use wmpt_serve::{find_network, run_request, SimRequest, SimResult, DEFAULT_FAULT_ITERS};

use crate::out::Metrics;
use crate::phase::Phase;
use crate::rng::{fnv64, SplitMix64};
use crate::spans::{self, Spans};
use crate::speed::{Probe, Stopwatch};
use crate::stats::median;

/// The Table-II layers, each swept over all six configs.
pub(crate) const LAYERS: [&str; 5] = ["Early", "Mid-1", "Mid-2", "Late-1", "Late-2"];
/// Networks swept over all six configs.
const NETWORKS: [&str; 3] = ["wrn", "resnet34", "vgg16"];
/// `(topology, pattern)` flit-level sweeps.
const NOCS: [(&str, &str); 4] = [
    ("ring", "uniform"),
    ("ring", "hotspot"),
    ("fbfly", "neighbor"),
    ("fbfly", "transpose"),
];
/// The model zoo, each auto-planned.
pub(crate) const ZOO: [&str; 5] = ["table2", "wrn", "resnet34", "fractalnet", "vgg16"];
/// The one fixed-config plan.
const PLAN: (&str, &str) = ("wrn", "w_mp++");
/// The fault scenario of the seeded `faults` run.
const FAULT_SCENARIO: &str = "single-link";
/// The layer whose trace the `analyze` request embeds.
const ANALYZE_LAYER: (&str, &str) = ("Late-2", "w_mp++");

/// One catalog entry.
struct Item {
    /// Stable label (`layer/Early`, `plan_auto/wrn`, ...).
    label: String,
    /// The request.
    req: SimRequest,
}

/// The catalog in the seed's order. Only the `faults` seed and the order
/// depend on the seed; every other output is the same for every seed.
fn catalog(seed: u64, analyze_trace: &str) -> Vec<Item> {
    let must = |r: Result<SimRequest, String>| r.expect("catalog requests are valid");
    let mut items = Vec::new();
    for l in LAYERS {
        items.push((format!("layer/{l}"), must(SimRequest::layer(l, "all"))));
    }
    for n in NETWORKS {
        items.push((format!("network/{n}"), must(SimRequest::network(n, "all"))));
    }
    for (t, p) in NOCS {
        items.push((format!("noc/{t}/{p}"), must(SimRequest::noc(t, p))));
    }
    items.push((
        format!("plan/{}/{}", PLAN.0, PLAN.1),
        must(SimRequest::plan(PLAN.0, PLAN.1)),
    ));
    for n in ZOO {
        items.push((format!("plan_auto/{n}"), must(SimRequest::plan_auto(n))));
    }
    let mut rng = SplitMix64::derive(seed, 1);
    let fault_seed = rng.next_u64() % 1_000_000;
    items.push((
        format!("faults/{FAULT_SCENARIO}"),
        must(SimRequest::faults(
            FAULT_SCENARIO,
            fault_seed,
            DEFAULT_FAULT_ITERS,
        )),
    ));
    items.push((
        format!("analyze/{}", ANALYZE_LAYER.0),
        must(SimRequest::analyze(analyze_trace)),
    ));
    rng.shuffle(&mut items);
    items
        .into_iter()
        .map(|(label, req)| Item { label, req })
        .collect()
}

/// Digests of one result's artifacts (`0` = absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    /// FNV-64 of the report.
    report: u64,
    /// FNV-64 of the metrics artifact.
    metrics: u64,
    /// FNV-64 of the trace artifact.
    trace: u64,
    /// FNV-64 of the SVG artifact.
    svg: u64,
}

impl Digest {
    /// Digests a result.
    fn of(r: &SimResult) -> Digest {
        let d = |o: &Option<String>| o.as_deref().map_or(0, |s| fnv64(s.as_bytes()));
        Digest {
            report: fnv64(r.report.as_bytes()),
            metrics: d(&r.metrics),
            trace: d(&r.trace),
            svg: d(&r.svg),
        }
    }
}

struct Setup {
    pool: ParPool,
    items: Vec<Item>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let pool = ParPool::new(2);
    let layer = SimRequest::layer(ANALYZE_LAYER.0, ANALYZE_LAYER.1)?;
    let trace = run_request(&layer, &pool)?
        .trace
        .ok_or("layer result without a trace")?;
    Ok(Setup {
        items: catalog(seed, &trace),
        pool,
    })
}

/// Sum of `total: <n> cycles` over the auto-plan reports, in Mcycles.
fn auto_plan_mcycles(reports: &BTreeMap<String, String>) -> Result<f64, String> {
    let mut total = 0.0;
    for n in ZOO {
        let label = format!("plan_auto/{n}");
        let report = &reports[&label];
        if !report.contains("oracle:") {
            return Err(format!("{label}: no validation line in the report"));
        }
        let cycles: f64 = report
            .lines()
            .find_map(|l| l.strip_prefix("total: "))
            .and_then(|l| l.split(' ').next())
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("{label}: no `total:` line"))?;
        total += cycles;
    }
    Ok(total / 1e6)
}

/// Mirrors the server's multi-config sweep: one private observer per
/// config on the pool, metrics merged through shards in config order,
/// traces appended past the layers already recorded.
fn observed_sweep<R: Send>(
    pool: &ParPool,
    n: usize,
    sim: impl Fn(usize, &mut Observer) -> R + Sync,
) -> Observer {
    let shards = MetricShards::new(n);
    let runs = pool.map_indexed(n, |i| {
        let mut o = Observer::new();
        black_box(sim(i, &mut o));
        shards.record(i, |reg| reg.merge(&o.metrics));
        o.trace
    });
    let mut obs = Observer::new();
    for trace in runs {
        let offset = obs.trace.category_cycles("layer");
        obs.trace.append_offset(&trace, offset);
    }
    obs.metrics.merge(&shards.merge());
    obs
}

/// Renders a sweep's artifacts in spans; returns their digests (no
/// report).
fn render_artifacts(sp: &mut Spans, obs: &Observer) -> Digest {
    let (trace, metrics) = sp.time("obs.chrome_render", |_| {
        (
            obs.trace.chrome_trace().render(),
            metrics_text(&obs.metrics),
        )
    });
    let svg = sp.time("analyze.svg", |_| timeline_svg(&obs.trace));
    Digest {
        report: 0,
        metrics: fnv64(metrics.as_bytes()),
        trace: fnv64(trace.as_bytes()),
        svg: fnv64(svg.as_bytes()),
    }
}

/// Planner counters of the latest traced run of each network:
/// `network → (memo hits, memo misses, configs evaluated)`.
#[derive(Default)]
struct PlanStats(BTreeMap<String, (u64, u64, u64)>);

/// Checks a piece the traced pass rebuilt against `run_request`'s
/// output for the same item, so the per-layer figures time what the
/// program runs.
fn expect(label: &str, ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!(
            "sim_sweep {label}: traced rebuild differs from run_request ({what})"
        ))
    }
}

/// Runs one catalog item through the layers' public functions, each in
/// a span, and checks what it rebuilds against `run_request`'s output
/// for the item: its `report` and artifact digests `want`.
fn traced_item(
    sp: &mut Spans,
    s: &Setup,
    item: &Item,
    report: &str,
    want: &Digest,
    ps: &mut PlanStats,
) -> Result<(), String> {
    let cfgs = SystemConfig::all();
    let label = item.label.as_str();
    let digest = |name: &str, got: u64, want: u64| expect(label, got == want, name);
    match &item.req {
        SimRequest::Layer { layer, .. } => {
            let spec = table2_layers()
                .into_iter()
                .find(|l| &l.name == layer)
                .ok_or("unknown layer")?;
            let model = SystemModel::paper();
            let obs = sp.time("core.layer_sweep", |_| {
                observed_sweep(&s.pool, cfgs.len(), |i, o| {
                    simulate_layer_observed(&model, &spec, cfgs[i], o)
                })
            });
            check_artifacts(label, &render_artifacts(sp, &obs), want)
        }
        SimRequest::Network { network, .. } => {
            let net = find_network(network).ok_or("unknown network")?;
            let model = SystemModel::paper_fp16();
            let obs = sp.time(&format!("core.network_sweep.{network}"), |_| {
                observed_sweep(&s.pool, cfgs.len(), |i, o| {
                    simulate_network_observed(&model, &net, cfgs[i], o)
                })
            });
            check_artifacts(label, &render_artifacts(sp, &obs), want)
        }
        SimRequest::Noc { topo, pattern } => {
            let t = match topo.as_str() {
                "ring" => Topology::ring(16, LinkKind::FullX2),
                _ => Topology::flattened_butterfly(4, 4, LinkKind::Narrow),
            };
            let p = match pattern.as_str() {
                "uniform" => TrafficPattern::UniformRandom,
                "transpose" => TrafficPattern::Transpose,
                "neighbor" => TrafficPattern::NeighborRing,
                _ => TrafficPattern::Hotspot,
            };
            let points = sp.time(&format!("noc.flit_sweep.{topo}"), |_| {
                latency_throughput_sweep(&t, p, 256, &[1000, 100, 30, 15, 8], 1)
            });
            // The report's rows are the sweep's points, one per line.
            let rows: String = points
                .iter()
                .map(|p| {
                    format!(
                        "{:>16.3} {:>16.1} {:>18.1}\n",
                        p.offered, p.latency, p.throughput
                    )
                })
                .collect();
            expect(label, report.ends_with(&rows), "sweep points")
        }
        SimRequest::Plan { network, config } => {
            let net = find_network(network).ok_or("unknown network")?;
            let sys = cfgs
                .into_iter()
                .find(|c| c.abbrev() == config)
                .ok_or("unknown config")?;
            let plan = sp.time("core.plan", |_| {
                plan_network(&SystemModel::paper_fp16(), &net, sys).render()
            });
            expect(label, report.starts_with(&plan), "rendered plan")
        }
        SimRequest::PlanAuto { network } => {
            let net = find_network(network).ok_or("unknown network")?;
            let model = SystemModel::paper_fp16();
            let sys = SystemConfig::WMpPD;
            let cfg = wmpt_opt::PlannerConfig::default();
            let mut cache = wmpt_opt::EvalCache::new();
            let plan = sp.time("opt.search", |_| {
                wmpt_opt::auto_search(&model, sys, &net, &cfg, &mut cache)
            });
            let fixed = sp.time("opt.fixed", |_| {
                wmpt_noc::ClusterConfig::paper_configs().map(|cluster| {
                    let f = wmpt_opt::fixed_plan_layers(
                        &model,
                        sys,
                        &net.name,
                        &net.layers,
                        cluster,
                        &cfg,
                        &mut cache,
                    );
                    format!(
                        "fixed ({:>2},{:>3}): {:>14.0} cycles",
                        cluster.n_g, cluster.n_c, f.total_cycles
                    )
                })
            });
            let oracle = sp.time("opt.validate", |_| {
                wmpt_opt::validate_plan(&model, sys, &net.layers, &plan, &mut cache)
            });
            if !oracle.all_within_bounds() {
                return Err(format!("auto plan for {network} failed validation"));
            }
            expect(label, report.starts_with(&plan.render()), "rendered plan")?;
            for line in &fixed {
                expect(label, report.contains(line.as_str()), "fixed-config costs")?;
            }
            let checked = format!(
                "oracle: {} collective(s) event-validated, {} skipped",
                oracle.checks.len(),
                oracle.skipped
            );
            expect(label, report.contains(&checked), "oracle checks")?;
            let mut stats = cache.stats;
            stats.search_ms = 0.0;
            let mut reg = MetricRegistry::new();
            stats.record(&mut reg);
            digest(
                "metrics",
                fnv64(metrics_text(&reg).as_bytes()),
                want.metrics,
            )?;
            ps.0.insert(
                network.clone(),
                (stats.memo_hits, stats.memo_misses, stats.configs_evaluated),
            );
            Ok(())
        }
        SimRequest::Faults {
            scenario,
            seed,
            iters,
        } => {
            let sc = Scenario::parse(scenario).ok_or("unknown scenario")?;
            let shape = GridShape::small();
            let cfg = ResilienceConfig::small(*iters);
            let (x, t) = demo_dataset(77, 8);
            let runs = sp.time("fault.resilient", |_| {
                [
                    FaultPlan::empty(cfg.horizon()),
                    FaultPlan::scenario(sc, shape, *seed, cfg.horizon()),
                ]
                .map(|plan| {
                    let mut net = wmpt_core::WinogradNet::new(55, 2, &[4], true);
                    let mut obs = Observer::new();
                    train_resilient(&mut net, &x, &t, shape, &plan, &cfg, &mut obs)
                        .map(|r| (r, obs))
                        .map_err(|e| format!("resilient run failed: {e}"))
                })
            });
            let [clean, faulted] = runs;
            let ((clean, _), (r, obs)) = (clean?, faulted?);
            let line = format!(
                "rollbacks={} replayed={} recoveries={} recovery_cycles={} stall_cycles={} \
                 slowdown={:.3}x bit_identical={}",
                r.rollbacks,
                r.replayed_iterations,
                r.events_injected,
                r.recovery_cycles,
                r.stall_cycles,
                r.slowdown(),
                r.final_checkpoint == clean.final_checkpoint
            );
            expect(label, report.contains(&line), "resilience summary")?;
            let mut reg = MetricRegistry::new();
            reg.merge(&obs.metrics);
            digest(
                "metrics",
                fnv64(metrics_text(&reg).as_bytes()),
                want.metrics,
            )
        }
        SimRequest::Analyze { trace } => {
            let tracer = sp.time("obs.json_parse", |_| -> Result<Tracer, String> {
                let doc = json::parse(trace).map_err(|e| format!("trace: {e}"))?;
                Tracer::from_chrome_trace(&doc)
            })?;
            let text = sp.time("analyze.critpath", |_| Analysis::of_trace(&tracer).render());
            let svg = sp.time("analyze.svg", |_| timeline_svg(&tracer));
            expect(label, text == report, "analysis report")?;
            digest("svg", fnv64(svg.as_bytes()), want.svg)
        }
    }
}

/// A metrics artifact's text, as `run_request` writes it.
fn metrics_text(reg: &MetricRegistry) -> String {
    reg.to_json().render() + "\n"
}

/// Checks a sweep's rebuilt trace, metrics and SVG digests.
fn check_artifacts(label: &str, got: &Digest, want: &Digest) -> Result<(), String> {
    for (name, g, w) in [
        ("metrics", got.metrics, want.metrics),
        ("trace", got.trace, want.trace),
        ("svg", got.svg, want.svg),
    ] {
        expect(label, g == w, name)?;
    }
    Ok(())
}

/// The `sim_sweep` phase. A slice is one catalog item; items run in
/// the seed's order, round and round.
pub struct Sim {
    s: Setup,
    next: usize,
    /// First digest of every item; later runs must match it.
    digests: BTreeMap<String, Digest>,
    reports: BTreeMap<String, String>,
    /// Artifact bytes (everything but the report) per item.
    bytes: BTreeMap<String, usize>,
    untraced: ItemTimes,
    traced: ItemTimes,
    plan: PlanStats,
    sp: Spans,
    ops: u64,
}

impl Sim {
    /// Sets up the pool and the catalog for `seed`.
    pub fn new(seed: u64) -> Result<Sim, String> {
        Ok(Sim {
            s: setup(seed)?,
            next: 0,
            digests: BTreeMap::new(),
            reports: BTreeMap::new(),
            bytes: BTreeMap::new(),
            untraced: BTreeMap::new(),
            traced: BTreeMap::new(),
            plan: PlanStats::default(),
            sp: Spans::recording(),
            ops: 0,
        })
    }

    fn untraced_item(&mut self, i: usize, probe: &mut Probe) -> Result<(), String> {
        let item = &self.s.items[i];
        let watch = Stopwatch::start(probe);
        let r = run_request(&item.req, &self.s.pool)
            .map_err(|e| format!("sim_sweep {}: {e}", item.label))?;
        let dt = watch.read(probe);
        let d = Digest::of(&r);
        match self.digests.get(&item.label) {
            Some(first) if *first != d => {
                return Err(format!(
                    "sim_sweep {}: output differs between runs",
                    item.label
                ))
            }
            Some(_) => {}
            None => {
                self.digests.insert(item.label.clone(), d);
                self.bytes
                    .insert(item.label.clone(), r.bytes() - r.report.len());
                self.reports.insert(item.label.clone(), r.report);
            }
        }
        self.untraced
            .entry(item.label.clone())
            .or_default()
            .push(dt);
        Ok(())
    }

    fn traced_item(&mut self, i: usize, probe: &mut Probe) -> Result<(), String> {
        let (s, plan) = (&self.s, &mut self.plan);
        let item = &s.items[i];
        let (Some(want), Some(report)) =
            (self.digests.get(&item.label), self.reports.get(&item.label))
        else {
            return Err("traced run before the untraced one".to_string());
        };
        let watch = Stopwatch::start(probe);
        self.sp.time(&format!("bench.item.{}", item.label), |sp| {
            traced_item(sp, s, item, report, want, plan)
        })?;
        let dt = watch.read(probe);
        self.traced.entry(item.label.clone()).or_default().push(dt);
        Ok(())
    }
}

/// `(wall, reference-speed)` times of every run of each item, in ms.
type ItemTimes = BTreeMap<String, Vec<(f64, f64)>>;

/// The median run of each item at the reference speed, summed: the
/// median catalog pass.
fn median_pass_ms(times: &ItemTimes) -> f64 {
    times
        .values()
        .map(|v| median(&v.iter().map(|t| t.1).collect::<Vec<_>>()))
        .sum()
}

impl Phase for Sim {
    fn name(&self) -> &'static str {
        "sim_sweep"
    }

    fn slice(&mut self, traced: bool, probe: &mut Probe) -> Result<(), String> {
        let i = self.next;
        self.next = (i + 1) % self.s.items.len();
        self.ops += 1;
        if traced {
            self.traced_item(i, probe)
        } else {
            self.untraced_item(i, probe)
        }
    }

    fn covered(&self, traced: bool) -> bool {
        let t = if traced { &self.traced } else { &self.untraced };
        t.len() == self.s.items.len()
    }

    fn e2e(&mut self) -> Result<Metrics, String> {
        let mut e = Metrics::default();
        let pass = median_pass_ms(&self.untraced);
        e.put("sim_sweep_s", pass / 1e3, "s");
        let mcycles = auto_plan_mcycles(&self.reports)?;
        e.put("auto_plan_mcycles", mcycles, "Mcycles");
        print_digests(&self.digests);
        println!(
            "sim_sweep: median pass {pass:.1} ms at the reference speed from {} run(s) of \
             each item; auto_plan_mcycles {mcycles}",
            self.untraced.values().map(Vec::len).min().unwrap_or(0)
        );
        Ok(e)
    }

    fn layers(&mut self) -> Result<Metrics, String> {
        Ok(layer_metrics(
            self.sp.spans(),
            &self.plan,
            median_pass_ms(&self.untraced),
            &self.traced,
            self.bytes.values().sum(),
        ))
    }

    fn spans(&self) -> &[spans::Span] {
        self.sp.spans()
    }

    fn finish(&mut self) -> Result<(u64, u64), String> {
        Ok((self.ops, 0))
    }
}

fn print_digests(digests: &BTreeMap<String, Digest>) {
    let mut fixed = Vec::new();
    let mut all = Vec::new();
    for (label, d) in digests {
        println!(
            "sim_sweep digest {label}: report {:016x} metrics {:016x} trace {:016x} svg {:016x}",
            d.report, d.metrics, d.trace, d.svg
        );
        for v in [d.report, d.metrics, d.trace, d.svg] {
            all.extend_from_slice(&v.to_le_bytes());
            if !label.starts_with("faults/") {
                fixed.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    println!(
        "sim_sweep digest: fixed {:016x} (every item but the seeded faults run), all {:016x}",
        fnv64(&fixed),
        fnv64(&all)
    );
}

/// Per-layer metrics. A stage's time is summed over the catalog items,
/// each item contributing the median of its traced runs of that stage,
/// each run scaled to the reference speed as the run was.
fn layer_metrics(
    sp: &[spans::Span],
    ps: &PlanStats,
    untraced_ms: f64,
    traced: &ItemTimes,
    artifact_bytes: usize,
) -> Metrics {
    // Stage totals of every traced run, grouped by item, with the run's
    // reference-speed share of its wall time.
    type Run = (BTreeMap<String, u64>, f64);
    let mut runs: BTreeMap<&str, Vec<Run>> = BTreeMap::new();
    for (id, s) in sp.iter().enumerate() {
        if let Some(label) = s.name.strip_prefix("bench.item.") {
            let totals = spans::totals_by_name(sp, &spans::descendants(sp, id));
            let v = runs.entry(label).or_default();
            let (wall, at_ref) = traced[label][v.len()];
            v.push((totals, at_ref / wall));
        }
    }
    // Summed over the items: the median run's figure at the reference
    // speed.
    let median_of = |f: &dyn Fn(&BTreeMap<String, u64>) -> u64| -> f64 {
        runs.values()
            .map(|v| {
                median(
                    &v.iter()
                        .map(|(t, share)| f(t) as f64 * share)
                        .collect::<Vec<_>>(),
                )
            })
            .sum::<f64>()
            / 1e6
    };
    let stage = |names: &[&str]| -> f64 {
        median_of(&|t| names.iter().map(|n| t.get(*n).copied().unwrap_or(0)).sum())
    };
    let mut m = Metrics::default();
    let layer_ms = stage(&["core.layer_sweep"]);
    m.put("core.layer_sweep_ms", layer_ms, "ms");
    for n in NETWORKS {
        let name = format!("core.network_sweep.{n}");
        m.put(format!("core.network_sweep_ms.{n}"), stage(&[&name]), "ms");
    }
    let layer_configs = (LAYERS.len() * SystemConfig::all().len()) as f64;
    m.put(
        "core.us_per_layer_config",
        layer_ms * 1e3 / layer_configs,
        "us",
    );
    m.put("core.plan_ms", stage(&["core.plan"]), "ms");
    for t in ["ring", "fbfly"] {
        let name = format!("noc.flit_sweep.{t}");
        m.put(format!("noc.flit_sweep_ms.{t}"), stage(&[&name]), "ms");
    }
    m.put("opt.search_ms", stage(&["opt.search"]), "ms");
    m.put("opt.fixed_ms", stage(&["opt.fixed"]), "ms");
    m.put("opt.validate_ms", stage(&["opt.validate"]), "ms");
    let (hits, misses, configs) =
        ps.0.values()
            .fold((0, 0, 0), |a, v| (a.0 + v.0, a.1 + v.1, a.2 + v.2));
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    m.put("opt.memo_hit_ratio", ratio, "ratio");
    println!(
        "opt.memo_hit_ratio = {ratio:.4} ({hits} hits of {} memo lookups over the zoo's searches)",
        hits + misses
    );
    m.put("opt.configs_evaluated", configs as f64, "count");
    m.put("fault.resilient_ms", stage(&["fault.resilient"]), "ms");
    m.put("obs.chrome_render_ms", stage(&["obs.chrome_render"]), "ms");
    m.put("obs.json_parse_ms", stage(&["obs.json_parse"]), "ms");
    m.put("analyze.svg_ms", stage(&["analyze.svg"]), "ms");
    m.put("analyze.critpath_ms", stage(&["analyze.critpath"]), "ms");
    m.put("obs.artifact_bytes", artifact_bytes as f64, "B");
    let covered = median_of(&|t| {
        t.iter()
            .filter(|(k, _)| !k.starts_with("bench."))
            .map(|(_, v)| *v)
            .sum()
    });
    m.put(
        "bench.trace_cover.sim_sweep",
        covered / untraced_ms,
        "ratio",
    );
    m.put(
        "bench.trace_overhead.sim_sweep",
        median_pass_ms(traced) / untraced_ms - 1.0,
        "ratio",
    );
    m
}
