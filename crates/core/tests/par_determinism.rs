//! The bit-exactness gate for the host-parallel runtime: every phase of
//! the Winograd layer and a multi-step functional MPT training run must
//! produce **byte-identical** results for `jobs ∈ {2, 7}` and for the
//! 1-job pool, which is the serial path. f32 values are compared as their
//! IEEE-754 bit patterns, reusing the `core::checkpoint` rendering (which
//! serializes weights as `to_bits()` integers) for whole-net state.

use wmpt_core::{
    checkpoint_net, fprop_distributed_par, reduced_gradient_distributed_par, WinogradNet,
};
use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_tensor::{DataGen, Shape4, Tensor4};
use wmpt_winograd::{WinogradLayer, WinogradTransform};

const WIDE: [usize; 2] = [2, 7];

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

fn layer_setup(batch: usize) -> (WinogradLayer, Tensor4, Tensor4) {
    let mut g = DataGen::new(41);
    let w = g.he_weights(Shape4::new(4, 3, 3, 3));
    let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
    let x = g.normal_tensor(Shape4::new(batch, 3, 8, 8), 0.0, 1.0);
    let dy = g.normal_tensor(Shape4::new(batch, 4, 8, 8), 0.0, 1.0);
    (layer, x, dy)
}

#[test]
fn layer_phases_bit_identical_across_jobs() {
    // Batch 1 and 8: one image gives the per-image transforms a single
    // task however wide the pool; eight spread over every worker.
    for batch in [8, 1] {
        let (layer, x, dy) = layer_setup(batch);
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
            assert_eq!(serial.0, y, "fprop diverged at batch={batch} jobs={jobs}");
            assert_eq!(serial.1, dx, "bprop diverged at batch={batch} jobs={jobs}");
            assert_eq!(
                serial.2, dw,
                "updateGrad diverged at batch={batch} jobs={jobs}"
            );
        }
    }
}

#[test]
fn distributed_phases_bit_identical_across_jobs() {
    let (layer, x, dy) = layer_setup(8);
    let central = bits(layer.fprop_par(&ParPool::serial(), &x).as_slice());
    // (1, 1) is a single logical worker, so the reduced gradient's
    // ordered fold merges one partial; the other grids merge many, in
    // whatever order the pool finishes them.
    for cfg in [
        ClusterConfig::new(4, 2),
        ClusterConfig::new(16, 1),
        ClusterConfig::new(1, 1),
    ] {
        let run = |jobs: usize| {
            let pool = ParPool::new(jobs);
            (
                bits(fprop_distributed_par(&pool, &layer, cfg, &x).as_slice()),
                bits(&reduced_gradient_distributed_par(&pool, &layer, cfg, &x, &dy).data),
            )
        };
        let serial = run(1);
        // Every output is computed by the same per-image transforms and
        // per-element reductions as the centralized layer.
        assert_eq!(
            central, serial.0,
            "{cfg}: distributed fprop differs from centralized"
        );
        for jobs in WIDE {
            let (y, g) = run(jobs);
            assert_eq!(
                serial.0, y,
                "{cfg}: distributed fprop diverged at jobs={jobs}"
            );
            assert_eq!(
                serial.1, g,
                "{cfg}: reduced gradient diverged at jobs={jobs}"
            );
        }
    }
}

/// Trains a fresh net for 3 MPT steps under `jobs` host threads on the
/// given cluster grid and renders the final checkpoint (f32-as-bits
/// JSON).
fn train_3_steps(jobs: usize, grid: ClusterConfig) -> (String, Vec<String>) {
    let mut g = DataGen::new(42);
    let x = g.normal_tensor(Shape4::new(8, 2, 8, 8), 0.0, 1.0);
    let targets: Vec<f32> = (0..8)
        .map(|b| if b % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let mut net = WinogradNet::new(7, 2, &[4, 4], false);
    let pool = ParPool::new(jobs);
    let mut losses = Vec::new();
    for _ in 0..3 {
        let loss = net.train_step_with(&x, &targets, 0.05, Some(grid), &pool);
        losses.push(format!("{loss:?}"));
    }
    (checkpoint_net(3, &net).render(), losses)
}

#[test]
fn three_step_mpt_training_checkpoints_byte_identical_across_jobs() {
    let grid = ClusterConfig::new(4, 2);
    let (reference, ref_losses) = train_3_steps(1, grid);
    for jobs in WIDE {
        let (ckpt, losses) = train_3_steps(jobs, grid);
        assert_eq!(
            reference, ckpt,
            "checkpoint rendering diverged at jobs={jobs}"
        );
        assert_eq!(ref_losses, losses, "losses diverged at jobs={jobs}");
    }
}

#[test]
fn three_step_mpt_checkpoints_byte_identical_through_batched_gemm_path() {
    // Single-group grid: every worker owns all 16 tile elements, so each
    // training phase runs the full batched element-GEMM path (the
    // blocked, panel-packed kernel over every (ξ,ν) point of its whole
    // batch chunk) rather than the element-sliced dispatch of the
    // grouped grid above. Checkpoints must still be byte-identical at
    // every jobs count.
    let grid = ClusterConfig::new(1, 2);
    let (reference, ref_losses) = train_3_steps(1, grid);
    for jobs in WIDE {
        let (ckpt, losses) = train_3_steps(jobs, grid);
        assert_eq!(
            reference, ckpt,
            "checkpoint rendering diverged at jobs={jobs}"
        );
        assert_eq!(ref_losses, losses, "losses diverged at jobs={jobs}");
    }
}
