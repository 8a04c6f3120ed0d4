//! `serve_zipf`: a closed loop of two clients against an in-process
//! [`Server`] over loopback, each waiting for its reply (`?wait=1`).
//!
//! Every client repeats one fixed mix of operations, a cycle of
//! [`OPS_PER_SLICE`]: one scrape (`/healthz` and `/metrics?format=prom`
//! in turn), four artifact GETs (report, metrics, trace, SVG — one of
//! them of the large `wrn` sweep run during set-up) and 45 job
//! submissions. Of the submissions, one in [`MISS_EVERY`] is a key of the
//! catalog's long tail — a `faults` run with a seed never used before —
//! which misses, executes and fills the cache; the others draw the head
//! of the catalog, the cheap `layer`, `noc`, `plan` and `plan_auto` keys,
//! Zipfian, and hit, because the head is submitted once before the
//! measurement starts. The seed decides which head keys, which artifacts
//! and which tail seeds; every slice has the same mix of hits, misses,
//! GETs and scrapes, so the figures do not depend on how many requests a
//! run gets through. The traffic's parameters, and why each has its
//! value, are listed in the README.

use std::collections::{BTreeMap, HashMap};
use std::thread;
use std::time::Instant;

use wmpt_obs::{json, Tracer};
use wmpt_par::ParPool;
use wmpt_serve::{hash_hex, http_request, run_request, ServeConfig, Server, SimRequest};

use crate::out::Metrics;
use crate::phase::Phase;
use crate::rng::{fnv64, SplitMix64, Zipf};
use crate::spans::{self, Spans};
use crate::speed::{Echo, Probe, Stopwatch, REFERENCE_ECHO_US};
use crate::stats::{median, quantile, MIN_BEYOND};

/// Concurrent clients (one per host thread of the reference container).
pub const CLIENTS: usize = 2;
/// Operations in one cycle of a client's mix; a slice is one cycle of
/// every client.
pub const OPS_PER_SLICE: usize = 50;
/// Cycle positions of the artifact GETs (8 % of the operations: enough
/// for a median of GET latency in a traced quarter, while submissions
/// stay 90 % of the traffic that `serve_rps` and the hit latencies
/// describe). The last one fetches from the hot `wrn` sweep, whose
/// ~0.5 MB trace is the large response served beside the small ones.
const ARTIFACT_AT: [usize; 4] = [12, 24, 36, 48];
/// Cycle position of the scrape (2 %, one kind per cycle in turn).
const SCRAPE_AT: usize = 0;
/// Target share of submissions that hit: most of them, yet at least one
/// in ten misses, so the miss percentiles fill within a measurement.
pub const HIT_SHARE: (f64, f64) = (0.75, 0.90);
/// One submission in this many is a tail key, a miss: the largest
/// divisor of a cycle's 45 submissions whose hit share, 8/9 = 0.889,
/// lies inside [`HIT_SHARE`], so every cycle has 5 misses per client.
pub const MISS_EVERY: usize = 9;
/// Zipf exponent over the head's ranks: Zipf's law in its classic form.
/// A design choice with no effect on the figures — every head draw is a
/// hit on a small cached status body; it decides which keys are hot.
pub const ZIPF_S: f64 = 1.0;
/// Share of head draws that goes to the keys whose artifacts the
/// clients fetch: the hottest keys, as a dashboard would show them.
const FETCH_SHARE: f64 = 0.75;
/// Distinct response bodies kept per kind for the JSON timing.
const BODIES_PER_KIND: usize = 8;
/// Lifecycle records retained in the traced run: enough that none drop.
const TRACE_CAP: usize = 1 << 21;
const SCENARIOS: [&str; 6] = [
    "single-link",
    "dead-worker",
    "bit-flip",
    "straggler",
    "host-flap",
    "chaos",
];

/// One job key: the request, its body, and its content address.
#[derive(Clone)]
pub struct Key {
    /// The request.
    pub req: SimRequest,
    /// JSON body sent to `POST /api/v1/jobs`.
    pub body: String,
    /// Expected job id (hex content hash).
    pub id: String,
}

impl Key {
    fn new(req: SimRequest) -> Key {
        Key {
            body: req.to_json().render(),
            id: hash_hex(req.cache_key()),
            req,
        }
    }

    /// Artifacts this request kind produces.
    fn artifacts(&self) -> &'static [&'static str] {
        match self.req {
            SimRequest::Layer { .. } | SimRequest::Network { .. } => {
                &["report", "metrics", "trace", "svg"]
            }
            SimRequest::PlanAuto { .. } | SimRequest::Faults { .. } => &["report", "metrics"],
            _ => &["report"],
        }
    }
}

/// The seeded request catalog: rank → key. The head holds every cheap
/// key of the mixed kinds once, in the seed's order; every rank past it
/// is a `faults` run with its own seed.
pub struct Catalog {
    head: Vec<Key>,
    seed: u64,
    zipf: Zipf,
    /// Head ranks `0..fetch_ranks` hold [`FETCH_SHARE`] of the head
    /// draws.
    fetch_ranks: usize,
}

impl Catalog {
    /// Builds the catalog for `seed`: the head's order and the `faults`
    /// seeds depend on it.
    pub fn new(seed: u64) -> Catalog {
        let must = |r: Result<SimRequest, String>| r.expect("catalog requests are valid");
        let configs = ["d_dp", "w_dp", "w_mp", "w_mp+", "w_mp*", "w_mp++"];
        let mut head = Vec::new();
        for l in crate::sim::LAYERS {
            for c in configs {
                head.push(must(SimRequest::layer(l, c)));
            }
        }
        for t in ["ring", "fbfly"] {
            for p in ["uniform", "transpose", "neighbor", "hotspot"] {
                head.push(must(SimRequest::noc(t, p)));
            }
        }
        for n in crate::sim::ZOO {
            for c in configs {
                head.push(must(SimRequest::plan(n, c)));
            }
            head.push(must(SimRequest::plan_auto(n)));
        }
        SplitMix64::derive(seed, 2).shuffle(&mut head);
        let zipf = Zipf::new(head.len(), ZIPF_S);
        Catalog {
            head: head.into_iter().map(Key::new).collect(),
            seed,
            fetch_ranks: zipf.ranks_holding(FETCH_SHARE),
            zipf,
        }
    }

    /// Keys in the head.
    pub fn head_len(&self) -> usize {
        self.head.len()
    }

    /// The key at `rank`.
    pub fn key(&self, rank: usize) -> Key {
        match self.head.get(rank) {
            Some(k) => k.clone(),
            None => Key::new(fault_key(self.seed, rank)),
        }
    }

    /// Draws a head rank.
    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        self.zipf.sample(rng)
    }
}

/// The `faults` request at tail position `k`.
fn fault_key(seed: u64, k: usize) -> SimRequest {
    let s = SplitMix64::derive(seed ^ 0x5EED, k as u64).next_u64() % 1_000_000_000;
    SimRequest::faults(
        SCENARIOS[k % SCENARIOS.len()],
        s,
        wmpt_serve::DEFAULT_FAULT_ITERS,
    )
    .expect("valid scenario")
}

/// The hot sweep run during set-up.
fn hot_key() -> Key {
    Key::new(SimRequest::network("wrn", "all").expect("valid network"))
}

/// One operation of a client's mix, before it becomes a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    /// `GET /api/v1/healthz`.
    Health,
    /// `GET /api/v1/metrics?format=prom`.
    Prom,
    /// An artifact of a head key (`None`: the hot sweep); `pick` chooses
    /// which of the key's artifacts.
    Artifact { rank: Option<usize>, pick: usize },
    /// A job submission of the key at `rank`.
    Submit { rank: usize },
}

/// A client's seeded operation sequence: cycles of [`OPS_PER_SLICE`]
/// operations with the scrape and the artifact GETs at fixed positions
/// and submissions elsewhere, every [`MISS_EVERY`]th submission a tail
/// key of the client's own (the clients offset from each other), the
/// rest Zipfian head draws.
pub struct Mix {
    /// Client index; the tail ranks `head + idx + k·CLIENTS` are its own.
    idx: usize,
    rng: SplitMix64,
    /// Operations and submissions planned, and tail keys drawn, so far.
    ops: usize,
    submissions: usize,
    tails: usize,
}

impl Mix {
    /// The sequence of client `idx` for `seed`.
    pub fn new(seed: u64, idx: usize) -> Mix {
        Mix {
            idx,
            rng: SplitMix64::derive(seed, 100 + idx as u64),
            ops: 0,
            submissions: 0,
            tails: 0,
        }
    }

    /// The next operation.
    pub fn next(&mut self, cat: &Catalog) -> Planned {
        let (cycle, pos) = (self.ops / OPS_PER_SLICE, self.ops % OPS_PER_SLICE);
        self.ops += 1;
        if pos == SCRAPE_AT {
            return if cycle % 2 == 0 {
                Planned::Health
            } else {
                Planned::Prom
            };
        }
        if let Some(j) = ARTIFACT_AT.iter().position(|&p| p == pos) {
            let rank = (j + 1 < ARTIFACT_AT.len()).then(|| self.rng.below(cat.fetch_ranks));
            let pick = self.rng.below(4);
            return Planned::Artifact { rank, pick };
        }
        let n = self.submissions + self.idx * MISS_EVERY / CLIENTS;
        self.submissions += 1;
        let rank = if n % MISS_EVERY == MISS_EVERY - 1 {
            self.tails += 1;
            cat.head_len() + self.idx + (self.tails - 1) * CLIENTS
        } else {
            cat.draw(&mut self.rng)
        };
        Planned::Submit { rank }
    }
}

/// What a client sends.
enum Request {
    Health,
    Prom,
    /// An artifact of a completed key (`None`: the hot sweep).
    Artifact {
        rank: Option<usize>,
        art: &'static str,
        path: String,
    },
    Submit {
        rank: usize,
        key: Key,
    },
}

/// What one client operation was.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Hit,
    Miss,
    Artifact,
    Health,
    Prom,
}

/// One completed operation.
struct Sample {
    op: Op,
    /// Latency at the reference speed, scaled as its slice was.
    latency_us: f64,
    /// Wall-clock latency, for matching against the server's own spans.
    wall_us: f64,
    /// Server request id (`r<n>`) of a submission.
    rid: String,
}

/// One client's state, carried across passes.
struct Client {
    mix: Mix,
    samples: Vec<Sample>,
    /// `(rank or None for the hot sweep, artifact) → digest` of every
    /// fetched artifact.
    fetched: BTreeMap<(Option<usize>, &'static str), u64>,
    /// Distinct JSON bodies kept for the parse/render timing, at most
    /// [`BODIES_PER_KIND`] per kind of response.
    bodies: BTreeMap<(&'static str, u64), String>,
    attempted: u64,
    failed: u64,
    /// Head submissions (all completed during the warm-up) that came
    /// back uncached.
    uncached_repeats: u64,
    errors: Vec<String>,
}

impl Client {
    fn new(seed: u64, idx: usize) -> Client {
        Client {
            mix: Mix::new(seed, idx),
            samples: Vec::new(),
            fetched: BTreeMap::new(),
            bodies: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            uncached_repeats: 0,
            errors: Vec::new(),
        }
    }

    fn keep_body(&mut self, kind: &'static str, body: &[u8]) {
        let kept = self.bodies.range((kind, 0)..=(kind, u64::MAX)).count();
        if kept < BODIES_PER_KIND {
            let text = String::from_utf8_lossy(body).into_owned();
            self.bodies.insert((kind, fnv64(body)), text);
        }
    }

    /// The next request of the client's mix.
    fn next_request(&mut self, cat: &Catalog, hot: &Key) -> Request {
        match self.mix.next(cat) {
            Planned::Health => Request::Health,
            Planned::Prom => Request::Prom,
            Planned::Artifact { rank, pick } => {
                let key = rank.map_or_else(|| hot.clone(), |r| cat.key(r));
                let arts = key.artifacts();
                let art = arts[pick % arts.len()];
                let path = format!("/api/v1/jobs/{}/{art}", key.id);
                Request::Artifact { rank, art, path }
            }
            Planned::Submit { rank } => Request::Submit {
                rank,
                key: cat.key(rank),
            },
        }
    }

    /// One operation, timed and (when tracing) recorded as a span.
    fn op(&mut self, addr: &str, cat: &Catalog, hot: &Key, sp: &mut Spans) {
        self.attempted += 1;
        let req = self.next_request(cat, hot);
        let (name, method, path, body): (_, _, &str, &[u8]) = match &req {
            Request::Health => ("serve.healthz", "GET", "/api/v1/healthz", b""),
            Request::Prom => (
                "serve.prom_scrape",
                "GET",
                "/api/v1/metrics?format=prom",
                b"",
            ),
            Request::Artifact { path, .. } => ("serve.artifact_get", "GET", path, b""),
            Request::Submit { key, .. } => (
                "serve.submit",
                "POST",
                "/api/v1/jobs?wait=1",
                key.body.as_bytes(),
            ),
        };
        let t0 = Instant::now();
        let outcome = http_request(addr, method, path, body);
        let t1 = Instant::now();
        sp.record(name, t0, t1);
        // A connection error, a 429 and a 5xx count as failed operations.
        let resp = match outcome {
            Ok(r) if r.status != 429 && r.status < 500 => r,
            _ => {
                self.failed += 1;
                return;
            }
        };
        if resp.status != 200 {
            self.errors.push(format!(
                "{name}: unexpected status {} ({})",
                resp.status,
                resp.text()
            ));
            return;
        }
        let op = match req {
            Request::Health => {
                self.keep_body("healthz", &resp.body);
                Op::Health
            }
            Request::Prom => Op::Prom,
            Request::Artifact { rank, art, .. } => {
                let d = fnv64(&resp.body);
                if self
                    .fetched
                    .insert((rank, art), d)
                    .is_some_and(|prev| prev != d)
                {
                    self.errors.push(format!(
                        "artifact {art} of rank {rank:?} changed between fetches"
                    ));
                }
                if resp.content_type.starts_with("application/json") {
                    self.keep_body(art, &resp.body);
                }
                Op::Artifact
            }
            Request::Submit { rank, key } => {
                let text = resp.text();
                if !text.contains(&format!("\"job\":\"{}\"", key.id))
                    || !text.contains("\"status\":\"done\"")
                {
                    self.errors
                        .push(format!("submission of rank {rank}: unexpected body {text}"));
                    return;
                }
                let cached = text.contains("\"cached\":true");
                let head = rank < cat.head_len();
                if head && !cached {
                    self.uncached_repeats += 1;
                }
                if !head && cached {
                    self.errors
                        .push(format!("tail rank {rank} was a hit: a tail key repeated"));
                    return;
                }
                self.keep_body("status", &resp.body);
                if cached {
                    Op::Hit
                } else {
                    Op::Miss
                }
            }
        };
        let wall_us = (t1 - t0).as_secs_f64() * 1e6;
        self.samples.push(Sample {
            op,
            latency_us: wall_us,
            wall_us,
            rid: resp.request_id,
        });
    }
}

fn post_wait(addr: &str, key: &Key) -> Result<String, String> {
    let r = http_request(addr, "POST", "/api/v1/jobs?wait=1", key.body.as_bytes())?;
    if r.status != 200 {
        return Err(format!(
            "set-up submission answered {}: {}",
            r.status,
            r.text()
        ));
    }
    Ok(r.text())
}

/// Binds a server and runs the hot sweep through it.
fn setup(config: ServeConfig) -> Result<Server, String> {
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let body = post_wait(&server.addr().to_string(), &hot_key())?;
    if !body.contains("\"cached\":false") {
        return Err(format!(
            "hot sweep on a fresh server was not a miss: {body}"
        ));
    }
    Ok(server)
}

/// One measurement (untraced or traced): a server and its clients.
struct Run {
    /// The server; taken and shut down when the run is dropped.
    server: Option<Server>,
    addr: String,
    clients: Vec<Client>,
    /// Number of the last request of the warm-up (`None`: not warmed
    /// yet); the lifecycle records up to it are left out.
    warm_rid: Option<u64>,
    /// The server's job, submission and hit counters when the warm-up
    /// ended.
    warm_counts: [f64; 3],
    /// Time of the slices run so far at the reference speed, in s.
    elapsed_s: f64,
    /// Completed operations per second of each slice.
    slice_rps: Vec<f64>,
}

/// The number of a request id `r<n>`.
fn rid_number(rid: &str) -> Option<u64> {
    rid.strip_prefix('r')?.parse().ok()
}

impl Run {
    /// Binds a server with `config`, runs the hot sweep through it, and
    /// creates clients `first..first + CLIENTS` of `seed`.
    fn new(config: ServeConfig, seed: u64, first: usize) -> Result<Run, String> {
        let server = setup(config)?;
        Ok(Run {
            addr: server.addr().to_string(),
            server: Some(server),
            clients: (first..first + CLIENTS)
                .map(|i| Client::new(seed, i))
                .collect(),
            warm_rid: None,
            warm_counts: [0.0; 3],
            elapsed_s: 0.0,
            slice_rps: Vec::new(),
        })
    }

    /// Submits every head key once, untimed, so that head draws hit.
    fn warm(&mut self, cat: &Catalog) -> Result<(), String> {
        let mut last = 0;
        for rank in 0..cat.head_len() {
            let key = cat.key(rank);
            let r = http_request(
                &self.addr,
                "POST",
                "/api/v1/jobs?wait=1",
                key.body.as_bytes(),
            )?;
            if r.status != 200 || !r.text().contains("\"status\":\"done\"") {
                return Err(format!(
                    "serve_zipf warm-up of rank {rank} answered {}: {}",
                    r.status,
                    r.text()
                ));
            }
            last = last.max(rid_number(&r.request_id).ok_or("response without a request id")?);
        }
        self.warm_rid = Some(last);
        self.warm_counts = self.counts()?;
        Ok(())
    }

    /// Every client makes [`OPS_PER_SLICE`] operations, concurrently,
    /// after the warm-up if it has not run yet. The slice's time and its
    /// latencies are scaled to the reference speed (see [`Stopwatch`]),
    /// but for the hits': they are scaled by the loopback [`Echo`] passes
    /// around the slice, against [`REFERENCE_ECHO_US`].
    fn slice(
        &mut self,
        cat: &Catalog,
        hot: &Key,
        sp: &mut Spans,
        probe: &mut Probe,
        echo: &mut Echo,
    ) -> Result<(), String> {
        if self.warm_rid.is_none() {
            self.warm(cat)?;
        }
        let echo_before = echo.pass()?;
        let addr = &self.addr;
        let before: Vec<usize> = self.clients.iter().map(|c| c.samples.len()).collect();
        let watch = Stopwatch::start(probe);
        sp.time("bench.slice", |sp| {
            let forks: Vec<Spans> = thread::scope(|s| {
                let handles: Vec<_> = self
                    .clients
                    .iter_mut()
                    .map(|c| {
                        let mut csp = sp.fork();
                        s.spawn(move || {
                            csp.time("bench.client", |csp| {
                                for _ in 0..OPS_PER_SLICE {
                                    c.op(addr, cat, hot, csp);
                                }
                            });
                            csp
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            for f in forks {
                sp.adopt(f);
            }
        });
        let (wall, at_ref) = watch.read(probe);
        let share = if wall > 0.0 { at_ref / wall } else { 1.0 };
        let echo_share = REFERENCE_ECHO_US / (0.5 * (echo_before + echo.pass()?));
        let mut completed = 0;
        for (c, &from) in self.clients.iter_mut().zip(&before) {
            completed += c.samples.len() - from;
            for s in &mut c.samples[from..] {
                s.latency_us *= if s.op == Op::Hit { echo_share } else { share };
            }
        }
        if at_ref > 0.0 {
            self.slice_rps.push(completed as f64 / (at_ref / 1e3));
        }
        self.elapsed_s += at_ref / 1e3;
        Ok(())
    }

    /// The server's executed-job, submission and cache-hit counters,
    /// the set-up and warm-up included.
    fn counts(&self) -> Result<[f64; 3], String> {
        let m = get_json(&self.addr, "/api/v1/metrics")?;
        Ok(["serve.jobs_executed", "serve.requests", "serve.cache_hits"].map(|n| counter(&m, n)))
    }

    fn count(&self, op: Op) -> usize {
        self.clients
            .iter()
            .map(|c| c.samples.iter().filter(|s| s.op == op).count())
            .sum()
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        // Stops the server and joins its threads.
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn get_json(addr: &str, path: &str) -> Result<json::Value, String> {
    let r = http_request(addr, "GET", path, b"")?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    json::parse(&r.text()).map_err(|e| format!("GET {path}: {e}"))
}

fn counter(metrics: &json::Value, name: &str) -> f64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .or_else(|| metrics.get("gauges").and_then(|g| g.get(name)))
        .and_then(json::Value::as_f64)
        .unwrap_or(0.0)
}

/// Checks every fetched artifact against a direct `run_request` of the
/// same key, and that repeats of completed keys came back cached.
fn verify(m: &Run, cat: &Catalog, evictions: f64) -> Result<(), String> {
    let mut wanted: BTreeMap<Option<usize>, Vec<(&'static str, u64)>> = BTreeMap::new();
    for c in &m.clients {
        if let Some(e) = c.errors.first() {
            return Err(format!("serve_zipf: {e}"));
        }
        if c.uncached_repeats > 0 && evictions == 0.0 {
            return Err(format!(
                "serve_zipf: {} repeat submission(s) of completed keys were not cache hits",
                c.uncached_repeats
            ));
        }
        for (&(rank, art), &d) in &c.fetched {
            wanted.entry(rank).or_default().push((art, d));
        }
    }
    let pool = ParPool::new(2);
    for (rank, arts) in wanted {
        let key = rank.map_or_else(hot_key, |r| cat.key(r));
        let direct = run_request(&key.req, &pool)?;
        for (art, d) in arts {
            let (body, _) = direct.artifact(art).ok_or("missing artifact")?;
            if fnv64(body.as_bytes()) != d {
                return Err(format!(
                    "serve_zipf: served {art} of rank {rank:?} differs from run_request"
                ));
            }
        }
    }
    Ok(())
}

fn latencies(clients: &[Client], op: Op) -> Vec<f64> {
    clients
        .iter()
        .flat_map(|c| c.samples.iter())
        .filter(|s| s.op == op)
        .map(|s| s.latency_us)
        .collect()
}

/// Prints a measurement's measured hit share next to the share the mix
/// is built to have.
fn print_hit_share(what: &str, m: &Run) {
    let (hits, misses) = (m.count(Op::Hit), m.count(Op::Miss));
    let submissions = hits + misses;
    let completed: usize = m.clients.iter().map(|c| c.samples.len()).sum();
    println!(
        "serve_zipf {what}: {completed} requests in {:.2} s at the reference speed; hit share \
         {:.4} ({hits} hits of {submissions} submissions; by construction {:.4}, target {:?})",
        m.elapsed_s,
        hits as f64 / submissions.max(1) as f64,
        1.0 - 1.0 / MISS_EVERY as f64,
        HIT_SHARE
    );
}

/// End-to-end metrics of one measurement.
fn e2e_metrics(m: &Run) -> Result<Metrics, String> {
    let mut e = Metrics::default();
    // The median slice: every slice has the same mix, so this is robust
    // to bursts of host load that the probe missed.
    if m.slice_rps.is_empty() {
        return Err("serve_zipf: no timed slice".to_string());
    }
    let rps = median(&m.slice_rps);
    e.put("serve_rps", rps, "1/s");
    let completed: usize = m.clients.iter().map(|c| c.samples.len()).sum();
    println!(
        "serve_rps = {rps:.3} 1/s (median over {} slices; {:.3} 1/s over the whole measurement)",
        m.slice_rps.len(),
        completed as f64 / m.elapsed_s
    );
    let hits = latencies(&m.clients, Op::Hit);
    let misses = latencies(&m.clients, Op::Miss);
    // Hit latencies are scaled by the loopback echo around their slice,
    // miss latencies by the host-speed probe (see `Run::slice`).
    let report = [
        ("serve_hit_p50_us", &hits, 0.50, 1.0, "us"),
        ("serve_miss_p50_ms", &misses, 0.50, 1e-3, "ms"),
        ("serve_miss_p90_ms", &misses, 0.90, 1e-3, "ms"),
    ];
    for (name, samples, q, scale, unit) in report {
        let qv = quantile(name, samples, q)?;
        e.put(name, qv.value * scale, unit);
        println!("{name} = {:.3} {unit} (n = {})", qv.value * scale, qv.count);
    }
    let p99 = quantile("serve_hit_p99_us", &hits, 0.99)?;
    println!(
        "serve_hit_p99_us = {:.3} us (n = {}; reported as serve.hit_p99_us with --trace 1)",
        p99.value, p99.count
    );
    Ok(e)
}

/// Per-layer metrics from the server's lifecycle trace and the clients.
fn layer_metrics(m: &Run, untraced: &Run) -> Result<Metrics, String> {
    let addr = &m.addr;
    let health = get_json(addr, "/api/v1/healthz")?;
    let dropped = health
        .get("trace")
        .and_then(|t| t.get("dropped"))
        .and_then(json::Value::as_f64)
        .ok_or("healthz without trace.dropped")?;
    if dropped != 0.0 {
        return Err(format!(
            "serve_zipf: lifecycle trace dropped {dropped} record(s)"
        ));
    }
    let warm_rid = m.warm_rid.ok_or("traced measurement without a warm-up")?;
    let doc = get_json(addr, "/api/v1/trace")?;
    let tracer = Tracer::from_chrome_trace(&doc)?;
    let tracks = tracer.tracks();
    // Records: an outer `request` span (`<kind>#r<n>`, or
    // `<kind>.job#r<n>` on a worker) followed by its stage spans. Records
    // of the set-up and the warm-up are left out.
    let mut stages: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut server_us: HashMap<String, f64> = HashMap::new();
    let (mut is_job, mut skip) = (false, true);
    for s in tracer.spans() {
        let dur = (s.end - s.start) as f64;
        if s.cat == "request" {
            let rid = s.name.rsplit_once('#').and_then(|(_, r)| rid_number(r));
            skip = rid.is_none_or(|n| n <= warm_rid);
            is_job = tracks[s.track.index()].starts_with("worker");
            if skip {
                continue;
            }
            if !is_job {
                if let Some((_, rid)) = s.name.rsplit_once('#') {
                    server_us.insert(rid.to_string(), dur);
                }
            }
            continue;
        }
        if skip {
            continue;
        }
        let names: &[&'static str] = if is_job {
            &["queue_wait", "execute"]
        } else {
            &["parse", "cache_lookup", "wait", "respond"]
        };
        if let Some(&name) = names.iter().find(|&&n| n == s.name) {
            stages.entry(name).or_default().push(dur);
        }
    }
    let med = |name: &str| -> Result<f64, String> {
        stages
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .ok_or_else(|| format!("serve_zipf: no `{name}` stages in the lifecycle trace"))
    };
    let mut l = Metrics::default();
    l.put("serve.parse_us", med("parse")?, "us");
    l.put("serve.cache_lookup_us", med("cache_lookup")?, "us");
    let waits = stages.get("queue_wait").cloned().unwrap_or_default();
    for (q, name) in [
        (0.5, "serve.queue_wait_ms.p50"),
        (0.9, "serve.queue_wait_ms.p90"),
    ] {
        let qv = quantile(name, &waits, q)?;
        l.put(name, qv.value / 1e3, "ms");
        println!(
            "{name} = {:.4} ms (n = {} executed jobs)",
            qv.value / 1e3,
            qv.count
        );
    }
    l.put("serve.execute_ms", med("execute")? / 1e3, "ms");
    l.put("serve.respond_us", med("respond")?, "us");
    // The hit tail follows the hypervisor's scheduling more than the
    // server's code (see README), so it is reported here, ungated, from
    // the untraced half.
    let hit_p99 = quantile(
        "serve_hit_p99_us",
        &latencies(&untraced.clients, Op::Hit),
        0.99,
    )?;
    l.put("serve.hit_p99_us", hit_p99.value, "us");
    let gets = latencies(&m.clients, Op::Artifact);
    l.put("serve.artifact_get_ms", median(&gets) / 1e3, "ms");
    let unattributed: Vec<f64> = m
        .clients
        .iter()
        .flat_map(|c| c.samples.iter())
        .filter(|s| matches!(s.op, Op::Hit | Op::Miss))
        .filter_map(|s| server_us.get(&s.rid).map(|srv| s.wall_us - srv))
        .collect();
    if unattributed.is_empty() {
        return Err("serve_zipf: no client request matched a server record".to_string());
    }
    l.put("serve.unattributed_us", median(&unattributed), "us");

    let metrics = get_json(addr, "/api/v1/metrics")?;
    let [_, requests, hits] = m.counts()?;
    let (requests, hits) = (requests - m.warm_counts[1], hits - m.warm_counts[2]);
    l.put("serve.hit_ratio", hits / requests.max(1.0), "ratio");
    println!(
        "serve.hit_ratio = {:.4} ({hits} hits of {requests} submissions)",
        hits / requests.max(1.0)
    );
    l.put(
        "serve.coalesced",
        counter(&metrics, "serve.coalesced"),
        "count",
    );
    l.put(
        "serve.rejected_overload",
        counter(&metrics, "serve.rejected_overload"),
        "count",
    );
    l.put(
        "serve.evictions",
        counter(&metrics, "serve.cache_evictions"),
        "count",
    );
    l.put(
        "serve.cache_mb",
        counter(&metrics, "serve.cache_bytes") / (1024.0 * 1024.0),
        "MiB",
    );
    l.put("serve.trace_dropped", dropped, "count");

    // JSON parse and render on the workload's own response bodies.
    let bodies: BTreeMap<&(&str, u64), &String> =
        m.clients.iter().flat_map(|c| c.bodies.iter()).collect();
    let (mut parse_us, mut render_us) = (Vec::new(), Vec::new());
    for body in bodies.values() {
        let t0 = Instant::now();
        let v = json::parse(body).map_err(|e| format!("served body is not JSON: {e}"))?;
        parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        std::hint::black_box(v.render());
        render_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    l.put("obs.json_parse_us", mean(&parse_us), "us");
    l.put("obs.json_render_us", mean(&render_us), "us");
    println!(
        "obs.json_parse_us / obs.json_render_us: mean over {} distinct served bodies, {} bytes",
        bodies.len(),
        bodies.values().map(|b| b.len()).sum::<usize>()
    );
    // Tracing cost on the request path: the traced run's median hit
    // latency against the untraced run's.
    let hit_p50 = |x: &Run| median(&latencies(&x.clients, Op::Hit));
    l.put(
        "bench.trace_overhead.serve_zipf",
        hit_p50(m) / hit_p50(untraced) - 1.0,
        "ratio",
    );
    Ok(l)
}

/// The `serve_zipf` phase. A slice is [`OPS_PER_SLICE`] operations per
/// client; the untraced and traced measurements each have their own
/// server, the traced one with a lifecycle ring large enough to drop
/// nothing.
pub struct Serve {
    cat: Catalog,
    hot: Key,
    seed: u64,
    untraced: Run,
    traced: Option<Run>,
    sp: Spans,
    echo: Echo,
}

impl Serve {
    /// Binds the server (default config) and runs the hot sweep.
    pub fn new(seed: u64) -> Result<Serve, String> {
        Ok(Serve {
            cat: Catalog::new(seed),
            hot: hot_key(),
            seed,
            untraced: Run::new(ServeConfig::default(), seed, 0)?,
            traced: None,
            sp: Spans::recording(),
            echo: Echo::start()?,
        })
    }
}

impl Phase for Serve {
    fn name(&self) -> &'static str {
        "serve_zipf"
    }

    fn slice(&mut self, traced: bool, probe: &mut Probe) -> Result<(), String> {
        if traced {
            let run = self
                .traced
                .as_mut()
                .ok_or("traced slice before begin_trace")?;
            run.slice(&self.cat, &self.hot, &mut self.sp, probe, &mut self.echo)
        } else {
            self.untraced.slice(
                &self.cat,
                &self.hot,
                &mut Spans::disabled(),
                probe,
                &mut self.echo,
            )
        }
    }

    fn covered(&self, traced: bool) -> bool {
        if traced {
            // Ten queue waits beyond their p90: jobs executed since the
            // warm-up, which misses bound from above (coalesced misses
            // execute once).
            self.traced.as_ref().is_some_and(|r| {
                let jobs = r.counts().map_or(0.0, |c| c[0] - r.warm_counts[0]);
                r.count(Op::Hit) >= 2 * MIN_BEYOND
                    && r.count(Op::Artifact) > 0
                    && r.count(Op::Miss) >= 10 * MIN_BEYOND
                    && jobs >= (10 * MIN_BEYOND) as f64
            })
        } else {
            let hits = self.untraced.count(Op::Hit);
            let misses = self.untraced.count(Op::Miss);
            // Ten samples beyond p99 of hits and beyond p90 of misses.
            hits >= 100 * MIN_BEYOND && misses >= 10 * MIN_BEYOND
        }
    }

    fn begin_trace(&mut self) -> Result<(), String> {
        let config = ServeConfig {
            trace_cap: TRACE_CAP,
            ..ServeConfig::default()
        };
        self.traced = Some(Run::new(config, self.seed, CLIENTS)?);
        Ok(())
    }

    fn e2e(&mut self) -> Result<Metrics, String> {
        print_hit_share("untraced", &self.untraced);
        e2e_metrics(&self.untraced)
    }

    fn layers(&mut self) -> Result<Metrics, String> {
        let run = self.traced.as_ref().ok_or("no traced measurement")?;
        print_hit_share("traced", run);
        layer_metrics(run, &self.untraced)
    }

    fn spans(&self) -> &[spans::Span] {
        self.sp.spans()
    }

    fn finish(&mut self) -> Result<(u64, u64), String> {
        let (mut attempted, mut failed) = (0, 0);
        for run in std::iter::once(&self.untraced).chain(self.traced.as_ref()) {
            let metrics = get_json(&run.addr, "/api/v1/metrics")?;
            verify(run, &self.cat, counter(&metrics, "serve.cache_evictions"))?;
            for c in &run.clients {
                attempted += c.attempted;
                failed += c.failed;
            }
        }
        Ok((attempted, failed))
    }
}
