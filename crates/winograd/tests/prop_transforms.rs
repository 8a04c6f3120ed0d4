//! Randomized-property tests of the Winograd substrate: the Cook–Toom
//! generator is correct for arbitrary `(m, r)`, tiling round-trips
//! arbitrary feature geometries, and Winograd convolution agrees with
//! direct convolution over random shapes — the invariants every higher
//! layer of the reproduction stands on.
//!
//! Cases run on the `wmpt-check` harness: drawn from a seeded choice
//! stream, shrunk on failure, replayable via `WMPT_CHECK_REPLAY` (see the
//! failure report).

use wmpt_check::{check, Tol};
use wmpt_tensor::{Shape4, Tensor4};
use wmpt_winograd::{
    elementwise_gemm_par, from_winograd_output_par, to_winograd_input_par, weights_to_winograd,
    DirectConv, ParPool, WinogradConv, WinogradTransform,
};

/// Cook–Toom construction satisfies the Winograd identity for any small
/// `(m, r)` — exhaustive over the region the workspace uses, so no random
/// generator needed.
#[test]
fn cook_toom_identity() {
    for m in 2..6 {
        for r in 2..6 {
            let tf = WinogradTransform::cook_toom(m, r).expect("constructible");
            assert!(
                tf.identity_residual() < 1e-6,
                "F({m},{r}): residual {}",
                tf.identity_residual()
            );
        }
    }
}

/// 1-D Winograd correlation equals direct correlation for random data
/// and any generated transform.
#[test]
fn winograd_1d_equals_direct() {
    check("winograd_1d_equals_direct", |c| {
        let m = c.size(2, 4);
        let r = c.size(2, 4);
        let tf = WinogradTransform::cook_toom(m, r).expect("constructible");
        let d = c.vec_pm(tf.t(), 3.0);
        let g = c.vec_pm(r, 1.5);
        let got = tf.correlate_1d(&d, &g);
        for (i, y) in got.iter().enumerate() {
            let want: f32 = (0..r).map(|k| d[i + k] * g[k]).sum();
            wmpt_check::assert_approx_eq!(
                *y,
                want,
                Tol::CONV_WIDE_F32,
                "F({m},{r}) output {i} (d = {d:?}, g = {g:?})"
            );
        }
    });
}

/// Identity-kernel Winograd convolution reproduces the input for any
/// geometry (tiling extraction + inverse assembly round trip).
#[test]
fn tiling_round_trip() {
    check("tiling_round_trip", |c| {
        let shape = c.shape4((1, 2), (1, 3), (4, 11), (4, 11));
        let x = c.tensor_seeded(shape, 0.0, 1.0);
        let tf = WinogradTransform::f2x2_3x3();
        let mut ident = Tensor4::zeros(Shape4::new(shape.c, shape.c, 3, 3));
        for ch in 0..shape.c {
            ident[(ch, ch, 1, 1)] = 1.0;
        }
        let pool = ParPool::serial();
        let wx = to_winograd_input_par(&pool, &x, &tf);
        let ww = weights_to_winograd(&ident, &tf);
        let wy = elementwise_gemm_par(&pool, &wx, &ww);
        let back = from_winograd_output_par(&pool, &wy, &tf, shape);
        wmpt_check::assert_slices_approx_eq!(
            back.as_slice(),
            x.as_slice(),
            Tol::WINOGRAD_F32,
            "round trip through {shape}"
        );
    });
}

/// Winograd convolution equals direct convolution over random small
/// shapes for both of the paper's transforms.
#[test]
fn conv_equivalence() {
    check("conv_equivalence", |c| {
        let shape = c.shape4((1, 2), (1, 3), (4, 9), (4, 9));
        let j = c.size(1, 3);
        let tf = if c.bool() {
            WinogradTransform::f4x4_3x3()
        } else {
            WinogradTransform::f2x2_3x3()
        };
        let x = c.tensor_seeded(shape, 0.0, 1.0);
        let w = c.weights_seeded(Shape4::new(j, shape.c, 3, 3));
        let direct = DirectConv::new(3).fprop(&x, &w);
        let wino = WinogradConv::new(tf).fprop(&x, &w);
        let scale = direct.max_abs().max(1.0);
        let diff = wino.max_abs_diff(&direct);
        assert!(
            diff / scale < 1e-3,
            "{shape} J={j}: relative diff {}",
            diff / scale
        );
    });
}

/// bprop is the exact adjoint of fprop for random shapes:
/// `<fprop(x), dy> == <x, bprop(dy)>`.
#[test]
fn bprop_adjoint() {
    check("bprop_adjoint", |c| {
        let shape = c.shape4((1, 2), (1, 2), (4, 8), (4, 8));
        let hw = shape.h.max(shape.w);
        let shape = Shape4::new(shape.n, shape.c, hw, hw);
        let j = c.size(1, 2);
        let x = c.tensor_seeded(shape, 0.0, 1.0);
        let w = c.weights_seeded(Shape4::new(j, shape.c, 3, 3));
        let dy = c.tensor_seeded(Shape4::new(shape.n, j, hw, hw), 0.0, 1.0);
        let conv = WinogradConv::new(WinogradTransform::f2x2_3x3());
        let lhs: f64 = conv
            .fprop(&x, &w)
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(conv.bprop(&dy, &w).as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let scale = lhs.abs().max(1.0);
        assert!(
            (lhs - rhs).abs() / scale < 1e-3,
            "{shape} J={j}: {lhs} vs {rhs}"
        );
    });
}
