//! Bit-exactness property: every pool-taking execution path produces
//! results bit-identical across job counts — the wmpt-par contract
//! (chunk boundaries fixed by tensor shape, identical kernels per chunk)
//! checked over randomized shapes instead of the hand-picked cases in the
//! unit tests. Each property runs the function at `jobs = 1` (the serial
//! path) and requires `jobs ∈ {2, 7}` to match it bit for bit; the GEMMs
//! additionally match [`gemm_f32_ref`] at `jobs = 1`.
//!
//! Cases run on the `wmpt-check` harness; a failing configuration shrinks
//! toward the smallest diverging shape.

use wmpt_check::check;
use wmpt_par::ParPool;
use wmpt_tensor::ops::{gemm_f32_par, gemm_f32_ref, BLOCKED_MIN_MACS, GEMM_ROW_CHUNK};
use wmpt_tensor::Shape4;
use wmpt_winograd::{
    elementwise_gemm_bprop_par, elementwise_gemm_par, elementwise_gemm_wgrad_par,
    to_winograd_input_par, weights_to_winograd, WinogradLayer, WinogradTransform,
};

const WIDE: [usize; 2] = [2, 7];

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Per-element reference GEMMs: `out_e = op(a_e) · op(b_e)` through
/// [`gemm_f32_ref`], `a_e` being `rows × k` (`k × rows` when `ta`).
#[allow(clippy::too_many_arguments)]
fn elem_ref(
    elems: usize,
    a: &[f32],
    rows: usize,
    k: usize,
    b: &[f32],
    n: usize,
    ta: bool,
    tb: bool,
) -> Vec<u32> {
    let mut out = vec![0.0f32; elems * rows * n];
    let (ar, ac) = if ta { (k, rows) } else { (rows, k) };
    for e in 0..elems {
        gemm_f32_ref(
            &a[e * rows * k..(e + 1) * rows * k],
            ar,
            ac,
            &b[e * k * n..(e + 1) * k * n],
            n,
            &mut out[e * rows * n..(e + 1) * rows * n],
            ta,
            tb,
        );
    }
    bits(&out)
}

#[test]
fn elementwise_gemms_are_bit_identical_for_any_jobs() {
    check("elementwise_gemms_are_bit_identical_for_any_jobs", |c| {
        let tf = WinogradTransform::f2x2_3x3();
        // `big` puts every element GEMM above the BLOCKED_MIN_MACS cutoff
        // (blocked kernel on packed panels), otherwise below it
        // (reference kernel): at least 2·16 tiles × 12 × 12, at most
        // 2·25 tiles × 3 × 4.
        let big = c.bool();
        let shape = if big {
            c.shape4((2, 2), (12, 16), (8, 10), (8, 10))
        } else {
            c.shape4((1, 2), (1, 3), (4, 10), (4, 10))
        };
        let j = if big { c.size(12, 16) } else { c.size(1, 4) };
        let x = c.tensor_seeded(shape, 0.0, 1.0);
        let w = c.weights_seeded(Shape4::new(j, shape.c, 3, 3));
        let wx = to_winograd_input_par(&ParPool::serial(), &x, &tf);
        let ww = weights_to_winograd(&w, &tf);
        let (t2, tiles, i) = (wx.elems, wx.tiles, wx.chans);
        assert_eq!(tiles * i * j >= BLOCKED_MIN_MACS, big, "{tiles}x{i}x{j}");

        let run = |jobs: usize| {
            let pool = ParPool::new(jobs);
            let y = elementwise_gemm_par(&pool, &wx, &ww);
            let dx = elementwise_gemm_bprop_par(&pool, &y, &ww);
            let dw = elementwise_gemm_wgrad_par(&pool, &wx, &y);
            (y, dx, dw)
        };
        let (y, dx, dw) = run(1);
        let y_ref = elem_ref(t2, &wx.data, tiles, i, &ww.data, j, false, false);
        assert_eq!(y_ref, bits(&y.data), "fprop gemm vs reference");
        let dx_ref = elem_ref(t2, &y.data, tiles, j, &ww.data, i, false, true);
        assert_eq!(dx_ref, bits(&dx.data), "bprop gemm vs reference");
        let dw_ref = elem_ref(t2, &wx.data, i, tiles, &y.data, j, true, false);
        assert_eq!(dw_ref, bits(&dw.data), "wgrad gemm vs reference");

        for jobs in WIDE {
            let (y2, dx2, dw2) = run(jobs);
            assert_eq!(bits(&y.data), bits(&y2.data), "fprop gemm, jobs={jobs}");
            assert_eq!(bits(&dx.data), bits(&dx2.data), "bprop gemm, jobs={jobs}");
            assert_eq!(bits(&dw.data), bits(&dw2.data), "wgrad gemm, jobs={jobs}");
        }
    });
}

#[test]
fn layer_par_phases_are_bit_identical_for_any_jobs() {
    check("layer_par_phases_are_bit_identical_for_any_jobs", |c| {
        let tf = if c.bool() {
            WinogradTransform::f4x4_3x3()
        } else {
            WinogradTransform::f2x2_3x3()
        };
        // Batches of 1 and 2: the per-image transforms run one task or
        // fan out, whatever the pool width.
        let shape = c.shape4((1, 2), (1, 2), (4, 8), (4, 8));
        let j = c.size(1, 3);
        let x = c.tensor_seeded(shape, 0.0, 1.0);
        let w = c.weights_seeded(Shape4::new(j, shape.c, 3, 3));
        let layer = WinogradLayer::from_spatial(tf, &w);
        let dy = c.tensor_seeded(Shape4::new(shape.n, j, shape.h, shape.w), 0.0, 1.0);

        let run = |jobs: usize| {
            let pool = ParPool::new(jobs);
            (
                bits(layer.fprop_par(&pool, &x).as_slice()),
                bits(layer.bprop_par(&pool, &dy).as_slice()),
                bits(&layer.update_grad_par(&pool, &x, &dy).data),
            )
        };
        let serial = run(1);
        for jobs in WIDE {
            let (y, dx, dw) = run(jobs);
            assert_eq!(serial.0, y, "fprop, jobs={jobs}");
            assert_eq!(serial.1, dx, "bprop, jobs={jobs}");
            assert_eq!(serial.2, dw, "updateGrad, jobs={jobs}");
        }
    });
}

#[test]
fn gemm_f32_par_bit_identical_for_random_shapes() {
    check("gemm_f32_par_bit_identical_for_random_shapes", |c| {
        // m up to past two row bands; products span the BLOCKED_MIN_MACS
        // cutoff (at most 131·12·12).
        let m = c.size(1, 2 * GEMM_ROW_CHUNK + 3);
        let k = c.size(1, 12);
        let n = c.size(1, 12);
        let ta = c.bool();
        let tb = c.bool();
        let a = c.vec_pm(m * k, 2.0);
        let b = c.vec_pm(k * n, 2.0);
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let run = |jobs: usize| {
            let mut out = vec![0.0f32; m * n];
            gemm_f32_par(&ParPool::new(jobs), &a, ar, ac, &b, n, &mut out, ta, tb);
            bits(&out)
        };
        let mut reference = vec![0.0f32; m * n];
        gemm_f32_ref(&a, ar, ac, &b, n, &mut reference, ta, tb);
        let serial = run(1);
        assert_eq!(
            bits(&reference),
            serial,
            "gemm {m}x{k}x{n} ta={ta} tb={tb} jobs=1"
        );
        for jobs in WIDE {
            assert_eq!(
                serial,
                run(jobs),
                "gemm {m}x{k}x{n} ta={ta} tb={tb} jobs={jobs}"
            );
        }
    });
}
