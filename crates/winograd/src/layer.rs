//! Winograd-transformed convolution and the *Winograd layer*.
//!
//! Two training styles from the paper's Figure 2:
//!
//! * [`WinogradConv`] — Fig 2(a): weights live in the *spatial* domain and
//!   are transformed on the fly; `updateGrad` produces spatial `∂w`
//!   (`Gᵀ ∂W G`). This is the `w_dp` baseline.
//! * [`WinogradLayer`] — Fig 2(b), ref [29]: weights are *resident in the
//!   Winograd domain* and updated there, which is what makes MPT's
//!   group-partitioned weight storage possible (each group only ever
//!   touches its own tile elements `W_(u,v)`).

use wmpt_par::ParPool;
use wmpt_tensor::ops::{GemmB, GEMM_ROW_CHUNK};
use wmpt_tensor::{Shape4, Tensor4};

use crate::tiling::{
    from_winograd_output_par, input_grad_to_spatial_par, output_grad_to_winograd_par,
    to_winograd_input_par, weights_to_winograd, WgTensor, WgWeights,
};
use crate::WinogradTransform;

/// Runs the `T²` element GEMMs as one batched fat GEMM, distributed
/// across the pool in global [`GEMM_ROW_CHUNK`]-row bands over the
/// *whole* output (all element matrices concatenated), against
/// per-element prepared `B` operands ([`GemmB`]: packed panels above the
/// tensor crate's size cutoff, the reference kernel below it).
///
/// Chunk boundaries depend only on the output shape — never the element
/// grid — so a band may straddle element boundaries; each band dispatches
/// its sub-range of rows per element against that element's prepared
/// operand. One pool scope per call (instead of one per element) and one
/// packing pass per element (shared by every band) keep the dispatch
/// overhead independent of `T²`. Every output element runs the reference
/// reduction order, so results are bit-identical for any job count.
fn batched_elem_gemm<'a, F>(
    pool: &ParPool,
    out: &mut [f32],
    n: usize,
    rows_per_elem: usize,
    a_of: F,
    b: &[GemmB<'_>],
) where
    F: Fn(usize) -> (&'a [f32], usize, usize, bool) + Sync,
{
    pool.for_each_chunk_mut(out, GEMM_ROW_CHUNK * n, |ci, band| {
        let mut row = ci * GEMM_ROW_CHUNK;
        let end = row + band.len() / n;
        let mut off = 0;
        while row < end {
            let e = row / rows_per_elem;
            let local = row % rows_per_elem;
            let take = (rows_per_elem - local).min(end - row);
            let (a, ar, ac, ta) = a_of(e);
            b[e].rows(a, ar, ac, ta, &mut band[off * n..(off + take) * n], local);
            row += take;
            off += take;
        }
    });
}

/// Element-wise batched GEMM over tile elements: `Y_e = X_e · W_e` for
/// every `e ∈ 0..T²` (the paper's Eq. 2). `X_e` is `tiles × I`,
/// `W_e` is `I × J`, `Y_e` is `tiles × J`. Runs as one batched GEMM:
/// the weights are prepared once per element and the concatenated output
/// fans out across the pool in fixed global row bands; bit-identical for
/// any job count.
///
/// # Panics
///
/// Panics if element counts or channel counts disagree.
pub fn elementwise_gemm_par(pool: &ParPool, x: &WgTensor, w: &WgWeights) -> WgTensor {
    assert_eq!(x.elems, w.elems, "tile-element count mismatch");
    assert_eq!(x.chans, w.in_chans, "channel mismatch");
    let mut y = WgTensor::zeros(x.elems, x.tiles, w.out_chans);
    let b: Vec<GemmB> = (0..x.elems)
        .map(|e| GemmB::new(w.elem_matrix(e), x.tiles, x.chans, w.out_chans, false))
        .collect();
    batched_elem_gemm(
        pool,
        &mut y.data,
        w.out_chans,
        x.tiles,
        |e| (x.elem_matrix(e), x.tiles, x.chans, false),
        &b,
    );
    y
}

/// Element-wise `∂X_e = ∂Y_e · W_eᵀ` (same batched contract as
/// [`elementwise_gemm_par`]; the weights are read transposed).
///
/// # Panics
///
/// Panics if element counts or channel counts disagree.
pub fn elementwise_gemm_bprop_par(pool: &ParPool, dy: &WgTensor, w: &WgWeights) -> WgTensor {
    assert_eq!(dy.elems, w.elems, "tile-element count mismatch");
    assert_eq!(dy.chans, w.out_chans, "channel mismatch");
    let mut dx = WgTensor::zeros(dy.elems, dy.tiles, w.in_chans);
    // dX (tiles x I) = dY (tiles x J) * W^T (J x I).
    let b: Vec<GemmB> = (0..dy.elems)
        .map(|e| GemmB::new(w.elem_matrix(e), dy.tiles, dy.chans, w.in_chans, true))
        .collect();
    batched_elem_gemm(
        pool,
        &mut dx.data,
        w.in_chans,
        dy.tiles,
        |e| (dy.elem_matrix(e), dy.tiles, dy.chans, false),
        &b,
    );
    dx
}

/// Element-wise `∇W_e = X_eᵀ · ∂Y_e` (the per-worker partial weight
/// gradient of the `updateGrad` phase; same batched contract as
/// [`elementwise_gemm_par`], the row space being `T² × I` gradient rows
/// with `X_e` read transposed).
///
/// # Panics
///
/// Panics if element counts or tile counts disagree.
pub fn elementwise_gemm_wgrad_par(pool: &ParPool, x: &WgTensor, dy: &WgTensor) -> WgWeights {
    assert_eq!(x.elems, dy.elems, "tile-element count mismatch");
    assert_eq!(x.tiles, dy.tiles, "tile count mismatch");
    let mut dw = WgWeights::zeros(x.elems, x.chans, dy.chans);
    // dW (I x J) = X^T (I x tiles) * dY (tiles x J).
    let b: Vec<GemmB> = (0..x.elems)
        .map(|e| GemmB::new(dy.elem_matrix(e), x.chans, x.tiles, dy.chans, false))
        .collect();
    batched_elem_gemm(
        pool,
        &mut dw.data,
        dy.chans,
        x.chans,
        |e| (x.elem_matrix(e), x.tiles, x.chans, true),
        &b,
    );
    dw
}

/// Winograd convolution with spatial-domain weights (paper Fig 2(a)).
///
/// # Examples
///
/// ```
/// use wmpt_winograd::{WinogradConv, WinogradTransform};
/// use wmpt_tensor::{DataGen, Shape4};
///
/// let conv = WinogradConv::new(WinogradTransform::f2x2_3x3());
/// let mut g = DataGen::new(0);
/// let x = g.normal_tensor(Shape4::new(1, 2, 8, 8), 0.0, 1.0);
/// let w = g.he_weights(Shape4::new(4, 2, 3, 3));
/// let y = conv.fprop(&x, &w);
/// assert_eq!(y.shape(), Shape4::new(1, 4, 8, 8));
/// ```
#[derive(Debug, Clone)]
pub struct WinogradConv {
    tf: WinogradTransform,
}

impl WinogradConv {
    /// Creates the operator for a given transform.
    pub fn new(tf: WinogradTransform) -> Self {
        Self { tf }
    }

    /// The underlying transform.
    pub fn transform(&self) -> &WinogradTransform {
        &self.tf
    }

    /// Forward propagation (same semantics as [`crate::DirectConv::fprop`]).
    pub fn fprop(&self, x: &Tensor4, w: &Tensor4) -> Tensor4 {
        let pool = ParPool::serial();
        let wx = to_winograd_input_par(&pool, x, &self.tf);
        let ww = weights_to_winograd(w, &self.tf);
        let wy = elementwise_gemm_par(&pool, &wx, &ww);
        let out_shape = Shape4::new(x.shape().n, w.shape().n, x.shape().h, x.shape().w);
        from_winograd_output_par(&pool, &wy, &self.tf, out_shape)
    }

    /// Backward propagation: exact gradient of [`Self::fprop`] w.r.t. `x`.
    pub fn bprop(&self, dy: &Tensor4, w: &Tensor4) -> Tensor4 {
        let pool = ParPool::serial();
        let wdy = output_grad_to_winograd_par(&pool, dy, &self.tf);
        let ww = weights_to_winograd(w, &self.tf);
        let wdx = elementwise_gemm_bprop_par(&pool, &wdy, &ww);
        let in_shape = Shape4::new(dy.shape().n, w.shape().c, dy.shape().h, dy.shape().w);
        input_grad_to_spatial_par(&pool, &wdx, &self.tf, in_shape)
    }

    /// Weight-gradient phase producing a *spatial* `∂w` (chain rule
    /// `∂w = Gᵀ ∂W G` applied per filter).
    pub fn update_grad(&self, x: &Tensor4, dy: &Tensor4) -> Tensor4 {
        let pool = ParPool::serial();
        let wx = to_winograd_input_par(&pool, x, &self.tf);
        let wdy = output_grad_to_winograd_par(&pool, dy, &self.tf);
        let dw_wg = elementwise_gemm_wgrad_par(&pool, &wx, &wdy);
        let r = self.tf.r();
        let t = self.tf.t();
        let mut dw = Tensor4::zeros(Shape4::new(dy.shape().c, x.shape().c, r, r));
        let mut buf = vec![0.0f32; t * t];
        for j in 0..dw.shape().n {
            for i in 0..dw.shape().c {
                for (e, b) in buf.iter_mut().enumerate() {
                    *b = dw_wg.data[dw_wg.index(e, i, j)];
                }
                let sp = self.tf.weight_2d_grad(&buf);
                for u in 0..r {
                    for v in 0..r {
                        dw[(j, i, u, v)] = sp[u * r + v];
                    }
                }
            }
        }
        dw
    }
}

/// The *Winograd layer*: weights resident and updated in the Winograd
/// domain (paper Fig 2(b), ref [29]).
///
/// Because the layer's forward map is exactly
/// `y = Aᵀ[(X ⊙ W)]A` with `W` free parameters (not tied to a spatial
/// `w`), its gradients stay element-wise separable — the property MPT
/// exploits to confine weight-gradient reduction within groups.
///
/// # Examples
///
/// ```
/// use wmpt_par::ParPool;
/// use wmpt_winograd::{WinogradLayer, WinogradTransform};
/// use wmpt_tensor::{DataGen, Shape4};
///
/// let mut g = DataGen::new(0);
/// let w = g.he_weights(Shape4::new(4, 2, 3, 3));
/// let mut layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
/// let x = g.normal_tensor(Shape4::new(1, 2, 8, 8), 0.0, 1.0);
/// let y = layer.fprop_par(&ParPool::serial(), &x);
/// assert_eq!(y.shape(), Shape4::new(1, 4, 8, 8));
/// ```
#[derive(Debug, Clone)]
pub struct WinogradLayer {
    tf: WinogradTransform,
    weights: WgWeights,
}

impl WinogradLayer {
    /// Initializes the layer by transforming spatial weights `(J, I, r, r)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel size does not match the transform.
    pub fn from_spatial(tf: WinogradTransform, w: &Tensor4) -> Self {
        let weights = weights_to_winograd(w, &tf);
        Self { tf, weights }
    }

    /// Creates the layer from existing Winograd-domain weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.elems != T²`.
    pub fn from_winograd(tf: WinogradTransform, weights: WgWeights) -> Self {
        assert_eq!(weights.elems, tf.t() * tf.t(), "element count mismatch");
        Self { tf, weights }
    }

    /// The transform in use.
    pub fn transform(&self) -> &WinogradTransform {
        &self.tf
    }

    /// The Winograd-domain weights.
    pub fn weights(&self) -> &WgWeights {
        &self.weights
    }

    /// Mutable access to the weights (used by the distributed trainer to
    /// install reduced gradients).
    pub fn weights_mut(&mut self) -> &mut WgWeights {
        &mut self.weights
    }

    /// Applies an SGD step directly in the Winograd domain.
    ///
    /// # Panics
    ///
    /// Panics if gradient shape differs from the weights.
    pub fn apply_grad(&mut self, grad: &WgWeights, lr: f32) {
        self.weights.sgd_step(grad, lr);
    }

    /// Forward propagation: tile extraction, the per-element GEMMs and
    /// the inverse transform each fan out across `pool`. Bit-identical
    /// for any job count (the `wmpt-par` determinism contract).
    pub fn fprop_par(&self, pool: &ParPool, x: &Tensor4) -> Tensor4 {
        let wx = to_winograd_input_par(pool, x, &self.tf);
        let wy = elementwise_gemm_par(pool, &wx, &self.weights);
        let out_shape = Shape4::new(
            x.shape().n,
            self.weights.out_chans,
            x.shape().h,
            x.shape().w,
        );
        from_winograd_output_par(pool, &wy, &self.tf, out_shape)
    }

    /// Backward propagation: exact gradient of [`Self::fprop_par`] w.r.t.
    /// `x` (same determinism contract).
    pub fn bprop_par(&self, pool: &ParPool, dy: &Tensor4) -> Tensor4 {
        let wdy = output_grad_to_winograd_par(pool, dy, &self.tf);
        let wdx = elementwise_gemm_bprop_par(pool, &wdy, &self.weights);
        let in_shape = Shape4::new(
            dy.shape().n,
            self.weights.in_chans,
            dy.shape().h,
            dy.shape().w,
        );
        input_grad_to_spatial_par(pool, &wdx, &self.tf, in_shape)
    }

    /// Winograd-domain weight gradient `∇W_e = X_eᵀ ∂Y_e` — exactly what
    /// each MPT worker produces for its element subset (same determinism
    /// contract as [`Self::fprop_par`]).
    pub fn update_grad_par(&self, pool: &ParPool, x: &Tensor4, dy: &Tensor4) -> WgWeights {
        let wx = to_winograd_input_par(pool, x, &self.tf);
        let wdy = output_grad_to_winograd_par(pool, dy, &self.tf);
        elementwise_gemm_wgrad_par(pool, &wx, &wdy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectConv;
    use wmpt_tensor::ops::BLOCKED_MIN_MACS;
    use wmpt_tensor::DataGen;

    fn setup(seed: u64) -> (Tensor4, Tensor4, Tensor4) {
        let mut g = DataGen::new(seed);
        let x = g.normal_tensor(Shape4::new(2, 3, 8, 8), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(4, 3, 3, 3));
        let dy = g.normal_tensor(Shape4::new(2, 4, 8, 8), 0.0, 1.0);
        (x, w, dy)
    }

    #[test]
    fn winograd_fprop_matches_direct_f2x2() {
        let (x, w, _) = setup(1);
        let direct = DirectConv::new(3).fprop(&x, &w);
        let wino = WinogradConv::new(WinogradTransform::f2x2_3x3()).fprop(&x, &w);
        assert!(
            wino.max_abs_diff(&direct) < 1e-4,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_fprop_matches_direct_f4x4() {
        let (x, w, _) = setup(2);
        let direct = DirectConv::new(3).fprop(&x, &w);
        let wino = WinogradConv::new(WinogradTransform::f4x4_3x3()).fprop(&x, &w);
        assert!(
            wino.max_abs_diff(&direct) < 1e-3,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_fprop_matches_direct_f2x2_5x5() {
        let mut g = DataGen::new(3);
        let x = g.normal_tensor(Shape4::new(1, 2, 8, 8), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(3, 2, 5, 5));
        let direct = DirectConv::new(5).fprop(&x, &w);
        let wino = WinogradConv::new(WinogradTransform::f2x2_5x5()).fprop(&x, &w);
        assert!(
            wino.max_abs_diff(&direct) < 1e-3,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_bprop_matches_direct() {
        let (_, w, dy) = setup(4);
        let direct = DirectConv::new(3).bprop(&dy, &w);
        let wino = WinogradConv::new(WinogradTransform::f2x2_3x3()).bprop(&dy, &w);
        assert!(
            wino.max_abs_diff(&direct) < 1e-3,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_update_grad_matches_direct() {
        let (x, _, dy) = setup(5);
        let direct = DirectConv::new(3).update_grad(&x, &dy);
        let wino = WinogradConv::new(WinogradTransform::f2x2_3x3()).update_grad(&x, &dy);
        // accumulate over batch*positions -> use relative tolerance
        let scale = direct.max_abs().max(1.0);
        assert!(
            wino.max_abs_diff(&direct) / scale < 1e-3,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_layer_fprop_matches_winograd_conv() {
        let (x, w, _) = setup(6);
        let conv = WinogradConv::new(WinogradTransform::f2x2_3x3());
        let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        assert!(
            layer
                .fprop_par(&ParPool::serial(), &x)
                .max_abs_diff(&conv.fprop(&x, &w))
                < 1e-6
        );
    }

    #[test]
    fn winograd_layer_gradcheck_weights() {
        // Finite-difference check of dL/dW in the Winograd domain,
        // L = <fprop(x), dy>.
        let mut g = DataGen::new(7);
        let x = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(2, 2, 3, 3));
        let dy = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let mut layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let grad = layer.update_grad_par(&ParPool::serial(), &x, &dy);
        let eps = 1e-2f32;
        for probe in [0usize, 7, 23, grad.data.len() - 1] {
            let base = layer.weights.data[probe];
            layer.weights.data[probe] = base + eps;
            let lp: f64 = layer
                .fprop_par(&ParPool::serial(), &x)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            layer.weights.data[probe] = base - eps;
            let lm: f64 = layer
                .fprop_par(&ParPool::serial(), &x)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            layer.weights.data[probe] = base;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            wmpt_check::assert_approx_eq!(
                grad.data[probe],
                fd,
                wmpt_check::Tol::abs(2e-2),
                "elem {probe}"
            );
        }
    }

    #[test]
    fn winograd_layer_gradcheck_input() {
        let mut g = DataGen::new(8);
        let x = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(2, 2, 3, 3));
        let dy = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let dx = layer.bprop_par(&ParPool::serial(), &dy);
        let eps = 1e-2f32;
        let mut xp = x.clone();
        for probe in [(0usize, 0usize, 0usize, 0usize), (0, 1, 2, 3), (0, 0, 3, 3)] {
            let base = x[probe];
            xp[probe] = base + eps;
            let lp: f64 = layer
                .fprop_par(&ParPool::serial(), &xp)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            xp[probe] = base - eps;
            let lm: f64 = layer
                .fprop_par(&ParPool::serial(), &xp)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            xp[probe] = base;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            wmpt_check::assert_approx_eq!(dx[probe], fd, wmpt_check::Tol::abs(2e-2), "{probe:?}");
        }
    }

    #[test]
    fn layer_phases_are_bit_identical_for_any_jobs() {
        // fprop/bprop/updateGrad at jobs ∈ {2, 7} must equal jobs = 1 bit
        // for bit. Batch 1 gives the per-image transforms a single task,
        // batch 3 several; 3→4 channels keep every element GEMM below the
        // BLOCKED_MIN_MACS cutoff, 8→8 above it.
        let tf = WinogradTransform::f2x2_3x3();
        for (n, i, j) in [(3, 3, 4), (1, 3, 4), (3, 8, 8)] {
            let mut g = DataGen::new(12);
            let x = g.normal_tensor(Shape4::new(n, i, 9, 9), 0.0, 1.0);
            let w = g.he_weights(Shape4::new(j, i, 3, 3));
            let dy = g.normal_tensor(Shape4::new(n, j, 9, 9), 0.0, 1.0);
            let layer = WinogradLayer::from_spatial(tf.clone(), &w);
            let tiles = n * crate::Tiling::new(&tf, 9, 9).tiles_per_image();
            assert_eq!(tiles * i * j >= BLOCKED_MIN_MACS, j == 8);
            let run = |jobs: usize| {
                let pool = ParPool::new(jobs);
                let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                (
                    bits(layer.fprop_par(&pool, &x).as_slice()),
                    bits(layer.bprop_par(&pool, &dy).as_slice()),
                    bits(&layer.update_grad_par(&pool, &x, &dy).data),
                )
            };
            let serial = run(1);
            for jobs in [2, 7] {
                let (y, dx, dw) = run(jobs);
                assert_eq!(serial.0, y, "fprop diverged at n={n} jobs={jobs}");
                assert_eq!(serial.1, dx, "bprop diverged at n={n} jobs={jobs}");
                assert_eq!(serial.2, dw, "update_grad diverged at n={n} jobs={jobs}");
            }
        }
    }

    #[test]
    fn sgd_in_winograd_domain_reduces_loss() {
        // One SGD step on L = 0.5*||fprop(x) - target||^2 must reduce L.
        let mut g = DataGen::new(9);
        let x = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(2, 2, 3, 3));
        let target = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let mut layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let loss = |l: &WinogradLayer| -> f64 {
            l.fprop_par(&ParPool::serial(), &x)
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(a, b)| 0.5 * ((a - b) as f64).powi(2))
                .sum()
        };
        let l0 = loss(&layer);
        let y = layer.fprop_par(&ParPool::serial(), &x);
        let mut dy = y.clone();
        for (d, t) in dy.as_mut_slice().iter_mut().zip(target.as_slice()) {
            *d -= t;
        }
        let grad = layer.update_grad_par(&ParPool::serial(), &x, &dy);
        layer.apply_grad(&grad, 0.01);
        let l1 = loss(&layer);
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }
}
