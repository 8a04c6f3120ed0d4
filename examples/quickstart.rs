//! Quickstart: Winograd convolution, the Winograd layer, and a first look
//! at the MPT system simulation.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use winograd_mpt::core::{simulate_layer, SystemConfig, SystemModel};
use winograd_mpt::models::table2_layers;
use winograd_mpt::tensor::{DataGen, Shape4};
use winograd_mpt::winograd::{DirectConv, ParPool, WinogradConv, WinogradLayer, WinogradTransform};

fn main() {
    // 1. A Winograd transform and its correctness against direct conv.
    let tf = WinogradTransform::f2x2_3x3();
    println!(
        "transform: {tf} (multiplication reduction {:.2}x)",
        tf.mul_reduction_2d()
    );

    let mut gen = DataGen::new(42);
    let x = gen.normal_tensor(Shape4::new(2, 3, 16, 16), 0.0, 1.0);
    let w = gen.he_weights(Shape4::new(8, 3, 3, 3));

    let direct = DirectConv::new(3).fprop(&x, &w);
    let wino = WinogradConv::new(tf.clone()).fprop(&x, &w);
    println!(
        "winograd vs direct fprop: max |diff| = {:.2e} over {} outputs",
        wino.max_abs_diff(&direct),
        direct.shape().len()
    );

    // 2. The Winograd *layer*: weights resident in the Winograd domain,
    // updated there (what MPT trains).
    let mut layer = WinogradLayer::from_spatial(tf, &w);
    let dy = gen.normal_tensor(Shape4::new(2, 8, 16, 16), 0.0, 1.0);
    let grad = layer.update_grad_par(&ParPool::serial(), &x, &dy);
    layer.apply_grad(&grad, 0.01);
    println!(
        "winograd-domain SGD step applied to {} weight elements ({} tile elements x {}x{} channels)",
        layer.weights().data.len(),
        layer.weights().elems,
        layer.weights().in_chans,
        layer.weights().out_chans,
    );

    // 3. One layer on the 256-worker NDP system: data parallelism vs the
    // full MPT proposal.
    let model = SystemModel::paper();
    let late = &table2_layers()[4];
    let dp = simulate_layer(&model, late, SystemConfig::WDp);
    let full = simulate_layer(&model, late, SystemConfig::WMpPD);
    println!("\nlayer {late}:");
    println!(
        "  w_dp   : {:>10.0} cycles/iteration ({:.1} mJ)",
        dp.total_cycles(),
        dp.total_energy().total_j() * 1e3
    );
    println!(
        "  w_mp++ : {:>10.0} cycles/iteration ({:.1} mJ), organization {}",
        full.total_cycles(),
        full.total_energy().total_j() * 1e3,
        full.cluster
    );
    println!("  speedup: {:.2}x", dp.total_cycles() / full.total_cycles());
}
