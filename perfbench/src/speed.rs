//! Host speed: a fixed probe of the benchmark's own code, run right
//! before and right after every timed interval, and the stopwatch that
//! reports each interval at a reference host speed.
//!
//! On the reference host the whole VM runs faster or slower by a fifth
//! or more from one second to the next and from one minute to the next,
//! with little or no steal recorded (the physical host's shared cores,
//! caches, memory bandwidth or clock), and every timing moves with it.
//! A probe that does the same kinds of work as the workloads — float
//! multiply-adds over a cache-resident block, branchy ordered-map
//! updates, a stream over a buffer larger than the private caches —
//! moves with them. Each interval is divided by the slowdown the probe
//! shows around it (the mean of the pass before and the pass after,
//! over [`REFERENCE_MS`]). In a test on the reference host, a stand-in
//! workload's medians over ten 55 ms units spread 0.14 (IQR/median)
//! raw and 0.04 scaled by a probe of these three kinds, where a
//! memory-only probe managed 0.10.
//!
//! Served cache hits are scaled differently: their latency is set less
//! by the speed of the cores than by how fast the host wakes threads and
//! moves bytes over loopback, which an [`Echo`] of the benchmark's own
//! times. Over five runs on the reference host, scaling each serve
//! slice's hits by the echo passes around it cut the spread of the hit
//! median from 0.135 to 0.042.
//!
//! Between intervals no thread of the program under test runs: the
//! worker pools spawn scoped threads per call, and the server's threads
//! wait for requests. The probe checks that: the process may spend
//! little more CPU time during the passes than the passes take, so a
//! change to the program that keeps threads busy between intervals
//! cannot slow the probe and so flatter its own figures.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use crate::out::ms;
use crate::rng::SplitMix64;
use crate::stats::median;

/// Words in the probe's stream buffer (4 MiB: past the private caches).
const WORDS: usize = 1 << 19;
/// Side of the probe's square f32 matrices (3 × 9 KiB: L1/L2-resident).
const DIM: usize = 48;
/// Matrix products per pass.
const PRODUCTS: usize = 8;
/// Ordered-map updates per pass, over [`KEYS`] distinct keys.
const UPDATES: usize = 12_000;
const KEYS: u64 = 4096;
/// Median probe pass on the reference host (2-vCPU x86-64 VM), in ms.
pub const REFERENCE_MS: f64 = 5.0;
/// A pass that ended at most this long before an interval starts is
/// reused as the interval's pass before, in ms.
const REUSE_MS: f64 = 5.0;
/// Process CPU time allowed during the passes, as a multiple of their
/// wall time, plus [`CPU_SLACK_MS`] for the 10 ms granularity of the
/// kernel's accounting.
const CPU_LIMIT: f64 = 1.4;
const CPU_SLACK_MS: f64 = 100.0;

/// Probe state and timings of one run.
pub struct Probe {
    buf: Vec<u64>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    samples: Vec<f64>,
    /// When the last pass ended, and how long it took in ms.
    last: Option<(Instant, f64)>,
    /// CPU time of the whole process during the passes, in ms.
    cpu_ms: f64,
}

impl Default for Probe {
    fn default() -> Probe {
        let mut rng = SplitMix64::new(3);
        let mut mat = || (0..DIM * DIM).map(|_| rng.next_f64() as f32).collect();
        Probe {
            buf: vec![1; WORDS],
            a: mat(),
            b: mat(),
            c: vec![0.0; DIM * DIM],
            samples: Vec::new(),
            last: None,
            cpu_ms: 0.0,
        }
    }
}

impl Probe {
    /// Times one pass and returns it in ms: matrix products, map
    /// updates, then a seeded write over the stream buffer and a
    /// reduction.
    pub fn pass(&mut self) -> f64 {
        let cpu0 = process_cpu_ms();
        let t0 = Instant::now();
        for _ in 0..PRODUCTS {
            self.c.fill(0.0);
            for i in 0..DIM {
                for k in 0..DIM {
                    let aik = self.a[i * DIM + k];
                    let (row, brow) = (i * DIM, k * DIM);
                    for j in 0..DIM {
                        self.c[row + j] += aik * self.b[brow + j];
                    }
                }
            }
            black_box(&mut self.c);
        }
        let mut rng = SplitMix64::new(1);
        let mut map = BTreeMap::new();
        for i in 0..UPDATES as u64 {
            *map.entry(rng.next_u64() % KEYS).or_insert(0u64) += i;
        }
        black_box(map.values().sum::<u64>());
        for v in self.buf.iter_mut() {
            *v = v.wrapping_add(rng.next_u64());
        }
        black_box(self.buf.iter().fold(0u64, |acc, v| acc ^ v));
        let t = ms(t0.elapsed());
        self.samples.push(t);
        self.cpu_ms += process_cpu_ms() - cpu0;
        self.last = Some((Instant::now(), t));
        t
    }

    /// A pass that ends now: the last one if it just ended, else a new
    /// one.
    fn fresh_pass(&mut self) -> f64 {
        match self.last {
            Some((end, t)) if ms(end.elapsed()) <= REUSE_MS => t,
            _ => self.pass(),
        }
    }

    /// Median pass time in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// This run's median host slowdown against the reference (above 1
    /// when the host ran slower), for the run's log. Fails when other
    /// threads of the process ran during the passes.
    pub fn slowdown(&self) -> Result<f64, String> {
        if self.samples.is_empty() {
            return Err("no host-speed probe pass".to_string());
        }
        idle_check(self.cpu_ms, self.samples.iter().sum())?;
        Ok(self.median_ms() / REFERENCE_MS)
    }

    /// `(passes, process CPU ms, probe wall ms)`, for the run's log.
    pub fn summary(&self) -> (usize, f64, f64) {
        (self.samples.len(), self.cpu_ms, self.samples.iter().sum())
    }
}

/// Fails when the process spent more CPU time (`cpu_ms`) during the
/// probe's passes than the passes alone explain (`wall_ms`).
pub fn idle_check(cpu_ms: f64, wall_ms: f64) -> Result<(), String> {
    if cpu_ms > CPU_LIMIT * wall_ms + CPU_SLACK_MS {
        return Err(format!(
            "the process used {cpu_ms:.0} ms of CPU during {wall_ms:.0} ms of host-speed \
             probe: threads of the program ran between slices"
        ));
    }
    Ok(())
}

/// User plus system CPU time of this process so far, in ms: fields 14
/// and 15 of `/proc/self/stat`, in 10 ms ticks. 0 where unavailable.
fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 10.0
}

/// Host steal time so far, in ms summed over the CPUs: the 8th field of
/// the `cpu` line of `/proc/stat`, in 10 ms ticks. 0 where unavailable.
fn steal_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// Wall ms less `stolen_ms` of steal summed over `cpus` CPUs, divided
/// by the host slowdown the probe passes `before_ms` and `after_ms`
/// show. Steal is counted in 10 ms ticks per CPU, so one tick per CPU
/// is ignored as rounding and the rest is spread over the CPUs.
pub fn at_reference_speed(
    wall_ms: f64,
    stolen_ms: f64,
    cpus: f64,
    before_ms: f64,
    after_ms: f64,
) -> f64 {
    let stolen = (stolen_ms - 10.0 * cpus).max(0.0) / cpus;
    let slowdown = 0.5 * (before_ms + after_ms) / REFERENCE_MS;
    (wall_ms - stolen).max(0.0) / slowdown
}

/// Times an interval between two probe passes. [`Stopwatch::read`]
/// gives the wall time and the time at the reference host speed: less
/// the time the hypervisor took the CPUs away from this VM ("steal"),
/// divided by the slowdown the passes around the interval show.
pub struct Stopwatch {
    start: Instant,
    steal: f64,
    before_ms: f64,
}

impl Stopwatch {
    /// Runs (or reuses) the pass before and starts timing.
    pub fn start(probe: &mut Probe) -> Stopwatch {
        let before_ms = probe.fresh_pass();
        Stopwatch {
            steal: steal_ms(),
            before_ms,
            start: Instant::now(),
        }
    }

    /// Stops timing, runs the pass after, and returns `(wall ms, ms at
    /// the reference speed)`.
    pub fn read(self, probe: &mut Probe) -> (f64, f64) {
        let wall = ms(self.start.elapsed());
        let stolen = steal_ms() - self.steal;
        let after_ms = probe.pass();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let at_ref = at_reference_speed(wall, stolen, cpus, self.before_ms, after_ms);
        (wall, at_ref)
    }
}

/// Round trips per echo pass, and bytes each way.
const ECHO_ROUNDS: usize = 9;
const ECHO_BYTES: usize = 256;
/// Median echo round trip on the reference host, in µs.
pub const REFERENCE_ECHO_US: f64 = 120.0;

/// A loopback echo of the benchmark's own, shaped like a served cache
/// hit: a fresh connection per request, a thread per connection on the
/// accepting side, a small request and a small reply. A hit's latency is
/// set less by the speed of the host's cores than by how fast it wakes
/// threads and moves bytes between them, which the echo times. Its
/// threads wait in `accept` between passes.
pub struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    samples: Vec<f64>,
}

impl Echo {
    /// Binds the echo on loopback and starts its accepting thread.
    pub fn start() -> Result<Echo, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let accept = thread::spawn(move || {
            for conn in listener.incoming() {
                if stopped.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut conn) = conn else { continue };
                let handler = thread::spawn(move || {
                    let mut buf = [0u8; ECHO_BYTES];
                    if conn.read_exact(&mut buf).is_ok() {
                        let _ = conn.write_all(&buf);
                    }
                });
                let _ = handler.join();
            }
        });
        Ok(Echo {
            addr,
            stop,
            accept: Some(accept),
            samples: Vec::new(),
        })
    }

    /// Times [`ECHO_ROUNDS`] round trips and returns their median in µs.
    pub fn pass(&mut self) -> Result<f64, String> {
        let mut rounds = Vec::with_capacity(ECHO_ROUNDS);
        for _ in 0..ECHO_ROUNDS {
            let t0 = Instant::now();
            let mut s = TcpStream::connect(self.addr).map_err(|e| format!("echo connect: {e}"))?;
            let mut buf = [7u8; ECHO_BYTES];
            s.write_all(&buf)
                .and_then(|()| s.read_exact(&mut buf))
                .map_err(|e| format!("echo: {e}"))?;
            rounds.push(ms(t0.elapsed()) * 1e3);
        }
        let m = median(&rounds);
        self.samples.push(m);
        Ok(m)
    }

    /// Median pass in µs.
    pub fn median_us(&self) -> f64 {
        median(&self.samples)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wakes the accepting thread so it sees the stop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}
