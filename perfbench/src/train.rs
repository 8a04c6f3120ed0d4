//! `train_step`: full Winograd-layer training steps at batch 4,
//! F(2×2,3×3), on three Table-II shapes, each on a 1-job and a 2-job
//! pool.
//!
//! The untraced pass calls the public layer methods
//! (`WinogradLayer::{fprop_par, bprop_par, update_grad_par, apply_grad}`).
//! The traced pass calls the public stage functions those methods call,
//! in the same order — including the second `to_winograd_input` and
//! `output_grad_to_winograd` inside `update_grad` — each in its own span.

use std::hint::black_box;

use wmpt_par::ParPool;
use wmpt_tensor::{DataGen, Shape4, Tensor4};
use wmpt_winograd::{
    elementwise_gemm_bprop_par, elementwise_gemm_par, elementwise_gemm_wgrad_par,
    from_winograd_output_par, input_grad_to_spatial_par, output_grad_to_winograd_par,
    to_winograd_input_par, WinogradLayer, WinogradTransform,
};

use crate::out::Metrics;
use crate::phase::Phase;
use crate::spans::{self, Spans};
use crate::speed::{Probe, Stopwatch};
use crate::stats::median;

/// Images per step.
pub const BATCH: usize = 4;
/// SGD learning rate (the gradient does not depend on the weights, so
/// they drift linearly and stay finite for any number of steps).
const LR: f32 = 1e-4;

/// One layer shape: `chans → chans` channels at `hw × hw`.
#[derive(Debug, Clone, Copy)]
pub struct LayerShape {
    /// Metric suffix.
    pub name: &'static str,
    /// Input = output channels.
    pub chans: usize,
    /// Spatial height = width.
    pub hw: usize,
}

/// The Table-II shapes, from transform-dominated to GEMM-dominated.
pub const SHAPES: [LayerShape; 3] = [
    LayerShape {
        name: "early",
        chans: 64,
        hw: 56,
    },
    LayerShape {
        name: "mid1",
        chans: 128,
        hw: 28,
    },
    LayerShape {
        name: "mid2",
        chans: 256,
        hw: 14,
    },
];

/// Stage spans of one step: span name → metric stem.
const STAGES: [(&str, &str); 8] = [
    ("winograd.input_tf", "winograd.input_tf_ms"),
    ("winograd.dy_tf", "winograd.dy_tf_ms"),
    ("winograd.inverse_tf", "winograd.inverse_tf_ms"),
    ("winograd.dx_tf", "winograd.dx_tf_ms"),
    ("tensor.gemm_fwd", "winograd.gemm_fwd_ms"),
    ("tensor.gemm_bwd", "winograd.gemm_bwd_ms"),
    ("tensor.gemm_wgrad", "winograd.gemm_wgrad_ms"),
    ("winograd.sgd", "winograd.sgd_ms"),
];
const TRANSFORMS: [&str; 4] = [
    "winograd.input_tf",
    "winograd.dy_tf",
    "winograd.inverse_tf",
    "winograd.dx_tf",
];
const GEMMS: [&str; 3] = ["tensor.gemm_fwd", "tensor.gemm_bwd", "tensor.gemm_wgrad"];

impl LayerShape {
    /// 4×4 tiles over the batch.
    fn tiles(&self) -> usize {
        BATCH * self.hw.div_ceil(2) * self.hw.div_ceil(2)
    }

    /// Flops of the three element-GEMM phases of one step
    /// (`3 · T² · 2 · tiles · I · J`, `T = 4`).
    pub fn gemm_flops(&self) -> f64 {
        3.0 * 16.0 * 2.0 * self.tiles() as f64 * (self.chans * self.chans) as f64
    }
}

/// One shape's inputs and its two layer replicas (1-job and 2-job),
/// which must stay byte-identical step after step.
struct ShapeState {
    shape: LayerShape,
    x: Tensor4,
    dy: Tensor4,
    layers: [WinogradLayer; 2],
}

/// The two pools, in the order steps run on them.
fn pools() -> [ParPool; 2] {
    [ParPool::new(1), ParPool::new(2)]
}

fn setup(seed: u64) -> Vec<ShapeState> {
    let mut g = DataGen::new(seed);
    SHAPES
        .iter()
        .map(|&shape| {
            let (c, hw) = (shape.chans, shape.hw);
            let w = g.he_weights(Shape4::new(c, c, 3, 3));
            let x = g.normal_tensor(Shape4::new(BATCH, c, hw, hw), 0.0, 1.0);
            let dy = g.normal_tensor(Shape4::new(BATCH, c, hw, hw), 0.0, 1.0);
            let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
            ShapeState {
                shape,
                x,
                dy,
                layers: [layer.clone(), layer],
            }
        })
        .collect()
}

/// One step through the public layer methods; also returns its `(wall,
/// reference-speed)` time in ms.
fn step(
    layer: &mut WinogradLayer,
    pool: &ParPool,
    x: &Tensor4,
    dy: &Tensor4,
    probe: &mut Probe,
) -> ([Tensor4; 2], (f64, f64)) {
    let watch = Stopwatch::start(probe);
    let y = black_box(layer.fprop_par(pool, x));
    let dx = black_box(layer.bprop_par(pool, dy));
    let g = layer.update_grad_par(pool, x, dy);
    layer.apply_grad(&g, LR);
    ([y, dx], watch.read(probe))
}

/// One step through the stage functions, each in a span.
fn step_traced(
    sp: &mut Spans,
    layer: &mut WinogradLayer,
    pool: &ParPool,
    x: &Tensor4,
    dy: &Tensor4,
) -> [Tensor4; 2] {
    let tf = layer.transform().clone();
    let w = layer.weights();
    let (n, i, j) = (x.shape().n, w.in_chans, w.out_chans);
    let (h, wd) = (x.shape().h, x.shape().w);
    let y = sp.time("winograd.fprop", |sp| {
        let wx = sp.time("winograd.input_tf", |_| to_winograd_input_par(pool, x, &tf));
        let wy = sp.time("tensor.gemm_fwd", |_| elementwise_gemm_par(pool, &wx, w));
        sp.time("winograd.inverse_tf", |_| {
            from_winograd_output_par(pool, &wy, &tf, Shape4::new(n, j, h, wd))
        })
    });
    let dx = sp.time("winograd.bprop", |sp| {
        let wdy = sp.time("winograd.dy_tf", |_| {
            output_grad_to_winograd_par(pool, dy, &tf)
        });
        let wdx = sp.time("tensor.gemm_bwd", |_| {
            elementwise_gemm_bprop_par(pool, &wdy, w)
        });
        sp.time("winograd.dx_tf", |_| {
            input_grad_to_spatial_par(pool, &wdx, &tf, Shape4::new(n, i, h, wd))
        })
    });
    let g = sp.time("winograd.update_grad", |sp| {
        let wx = sp.time("winograd.input_tf", |_| to_winograd_input_par(pool, x, &tf));
        let wdy = sp.time("winograd.dy_tf", |_| {
            output_grad_to_winograd_par(pool, dy, &tf)
        });
        sp.time("tensor.gemm_wgrad", |_| {
            elementwise_gemm_wgrad_par(pool, &wx, &wdy)
        })
    });
    sp.time("winograd.sgd", |_| layer.apply_grad(&g, LR));
    [black_box(y), black_box(dx)]
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// `(wall, reference-speed)` step times, `[shape][pool]`, in ms.
type StepTimes = Vec<[Vec<(f64, f64)>; 2]>;

/// Median step time at the reference speed per shape and pool.
fn median_steps(times: &StepTimes) -> Vec<[f64; 2]> {
    let at_ref = |v: &[(f64, f64)]| median(&v.iter().map(|t| t.1).collect::<Vec<_>>());
    times
        .iter()
        .map(|t| [at_ref(&t[0]), at_ref(&t[1])])
        .collect()
}

/// The `train_step` phase. A slice is one step of one shape on each
/// pool, followed by the byte-identity check of the two replicas.
pub struct Train {
    states: Vec<ShapeState>,
    pools: [ParPool; 2],
    next: usize,
    untraced: StepTimes,
    traced: StepTimes,
    sp: Spans,
    ops: u64,
}

impl Train {
    /// Sets up inputs and layers for `seed`.
    pub fn new(seed: u64) -> Result<Train, String> {
        let states = setup(seed);
        let times = || states.iter().map(|_| [Vec::new(), Vec::new()]).collect();
        Ok(Train {
            untraced: times(),
            traced: times(),
            states,
            pools: pools(),
            next: 0,
            sp: Spans::recording(),
            ops: 0,
        })
    }
}

impl Phase for Train {
    fn name(&self) -> &'static str {
        "train_step"
    }

    fn slice(&mut self, traced: bool, probe: &mut Probe) -> Result<(), String> {
        let si = self.next;
        self.next = (si + 1) % self.states.len();
        let st = &mut self.states[si];
        let times = if traced {
            &mut self.traced[si]
        } else {
            &mut self.untraced[si]
        };
        let sp = &mut self.sp;
        let mut outs = Vec::with_capacity(2);
        for (k, pool) in self.pools.iter().enumerate() {
            let layer = &mut st.layers[k];
            let o = if traced {
                let name = format!("bench.step.{}.j{}", st.shape.name, pool.jobs());
                let watch = Stopwatch::start(probe);
                let o = sp.time(&name, |sp| step_traced(sp, layer, pool, &st.x, &st.dy));
                times[k].push(watch.read(probe));
                o
            } else {
                let (o, dt) = step(layer, pool, &st.x, &st.dy, probe);
                times[k].push(dt);
                o
            };
            outs.push(o);
            self.ops += 1;
        }
        let [w1, w2] = [&st.layers[0], &st.layers[1]].map(|l| &l.weights().data);
        let identical = (0..2).all(|i| same_bits(outs[0][i].as_slice(), outs[1][i].as_slice()))
            && same_bits(w1, w2);
        if identical {
            Ok(())
        } else {
            Err(format!(
                "train_step {}: 2-job outputs differ from 1-job",
                st.shape.name
            ))
        }
    }

    fn covered(&self, traced: bool) -> bool {
        let t = if traced { &self.traced } else { &self.untraced };
        t.iter().all(|s| !s[0].is_empty())
    }

    fn e2e(&mut self) -> Result<Metrics, String> {
        let steps = median_steps(&self.untraced);
        let per_pool = |k: usize| steps.iter().map(|m| m[k]).sum::<f64>();
        let images = (BATCH * SHAPES.len()) as f64;
        let mut e = Metrics::default();
        e.put("train_img_per_s", images / (per_pool(1) / 1e3), "img/s");
        e.put(
            "train_img_per_s_serial",
            images / (per_pool(0) / 1e3),
            "img/s",
        );
        println!(
            "train_step: median step ms at the reference speed (1-job / 2-job) of {} step(s) \
             per shape: {}",
            self.untraced.iter().map(|t| t[0].len()).min().unwrap_or(0),
            SHAPES
                .iter()
                .zip(&steps)
                .map(|(s, m)| format!("{} {:.1} / {:.1}", s.name, m[0], m[1]))
                .collect::<Vec<_>>()
                .join(", ")
        );
        Ok(e)
    }

    fn layers(&mut self) -> Result<Metrics, String> {
        Ok(layer_metrics(
            self.sp.spans(),
            &median_steps(&self.untraced),
            &self.traced,
        ))
    }

    fn spans(&self) -> &[spans::Span] {
        self.sp.spans()
    }

    fn finish(&mut self) -> Result<(u64, u64), String> {
        Ok((self.ops, 0))
    }
}

/// Per-layer metrics from the traced spans; `untraced` holds the
/// per-shape, per-pool median step times of the untraced measurement,
/// `traced` the step times of the traced one. A stage's time is its
/// median over the traced steps, each step's stages scaled to the
/// reference speed as the step was.
fn layer_metrics(sp: &[spans::Span], untraced: &[[f64; 2]], traced: &StepTimes) -> Metrics {
    let mut m = Metrics::default();
    let mut stage_sum = 0.0;
    for (si, shape) in SHAPES.iter().enumerate() {
        // Stage totals per traced step, for each pool (k = 0: 1 job),
        // with the step's reference-speed share of its wall time.
        type Step = (std::collections::BTreeMap<String, u64>, f64);
        let per_step = |k: usize| -> Vec<Step> {
            let step_name = format!("bench.step.{}.j{}", shape.name, k + 1);
            sp.iter()
                .enumerate()
                .filter(|(_, s)| s.name == step_name)
                .map(|(id, _)| spans::totals_by_name(sp, &spans::descendants(sp, id)))
                .zip(&traced[si][k])
                .map(|(totals, &(wall, at_ref))| (totals, at_ref / wall))
                .collect()
        };
        let stage_ms = |steps: &[Step], stage: &str| {
            let v: Vec<f64> = steps
                .iter()
                .map(|(t, share)| t.get(stage).copied().unwrap_or(0) as f64 / 1e6 * share)
                .collect();
            median(&v)
        };
        let serial = per_step(0);
        for (stage, stem) in STAGES {
            m.put(
                format!("{stem}.{}", shape.name),
                stage_ms(&serial, stage),
                "ms",
            );
        }
        for steps in [&serial, &per_step(1)] {
            stage_sum += STAGES.iter().map(|(s, _)| stage_ms(steps, s)).sum::<f64>();
        }
        let tf: f64 = TRANSFORMS.iter().map(|s| stage_ms(&serial, s)).sum();
        let gemm: f64 = GEMMS.iter().map(|s| stage_ms(&serial, s)).sum();
        let share = tf / (tf + gemm);
        m.put(
            format!("winograd.transform_share.{}", shape.name),
            share,
            "ratio",
        );
        println!(
            "winograd.transform_share.{} = {share:.3} (transforms {tf:.1} ms of {:.1} ms \
             transforms + element GEMMs, 1-job step)",
            shape.name,
            tf + gemm
        );
        // Two input transforms per step, one per (tile, channel) patch.
        let patches = 2.0 * (shape.tiles() * shape.chans) as f64;
        let input_ns = stage_ms(&serial, "winograd.input_tf") * 1e6;
        m.put(
            format!("winograd.input_tf_ns_per_tile.{}", shape.name),
            input_ns / patches,
            "ns",
        );
        let flops = shape.gemm_flops();
        let gflops = flops / (gemm * 1e6);
        m.put(
            format!("tensor.gemm_gflops.{}", shape.name),
            gflops,
            "GFLOP/s",
        );
        println!(
            "tensor.gemm_gflops.{} = {gflops:.3} ({flops:.4e} flop over {gemm:.1} ms, \
             1-job step)",
            shape.name
        );
        let [u1, u2] = untraced[si];
        m.put(format!("par.speedup.{}", shape.name), u1 / u2, "x");
    }
    let untraced_total: f64 = untraced.iter().map(|m| m[0] + m[1]).sum();
    let traced_total: f64 = median_steps(traced).iter().map(|m| m[0] + m[1]).sum();
    m.put(
        "bench.trace_cover.train_step",
        stage_sum / untraced_total,
        "ratio",
    );
    m.put(
        "bench.trace_overhead.train_step",
        traced_total / untraced_total - 1.0,
        "ratio",
    );
    m
}
