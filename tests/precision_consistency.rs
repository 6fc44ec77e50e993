//! Integration: single precision tracks double precision.
//!
//! The paper's f32 conversion is only admissible because the forecasts and
//! analyses stay statistically equivalent to f64 — these tests check that
//! property on the reproduced system at reduced scale.

use bda::letkf::weights::{apply_transform, compute_transform, LocalObs, TransformScratch};
use bda::num::stats::mean;
use bda::num::{BatchedEigen, MatrixS, SplitMix64};
use bda::scale::base::Sounding;
use bda::scale::{Model, ModelConfig};

fn model_of<T: bda::num::Real>() -> Model<T> {
    let mut cfg = ModelConfig::reduced(10, 10, 10);
    cfg.halo = bda_grid::halo::HaloPolicy::Periodic;
    cfg.davies_width = 0;
    let mut m = Model::<T>::new(cfg, &Sounding::convective());
    let g = m.cfg.grid.clone();
    m.state
        .add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 1500.0, 2000.0, 1200.0, 2.0);
    m
}

#[test]
fn short_forecasts_agree_across_precision() {
    let mut m32 = model_of::<f32>();
    let mut m64 = model_of::<f64>();
    m32.integrate(60.0).unwrap();
    m64.integrate(60.0).unwrap();

    // Compare domain-integrated diagnostics rather than pointwise values
    // (trajectories diverge chaotically; statistics must agree).
    let w32 = m32.state.w.interior_max_abs() as f64;
    let w64 = m64.state.w.interior_max_abs();
    assert!(
        (w32 - w64).abs() < 0.25 * w64.max(0.1),
        "updraft strength diverged: f32 {w32}, f64 {w64}"
    );

    let t32 = mean(&m32.state.theta.interior_to_vec()) as f64;
    let t64 = mean(&m64.state.theta.interior_to_vec());
    assert!(
        (t32 - t64).abs() < 0.05,
        "mean theta' diverged: f32 {t32}, f64 {t64}"
    );
}

#[test]
fn letkf_posterior_mean_agrees_across_precision() {
    let k = 60;
    let mut rng = SplitMix64::new(4);
    let xs64: Vec<f64> = (0..k).map(|_| rng.gaussian(10.0, 2.0)).collect();
    let xs32: Vec<f32> = xs64.iter().map(|&x| x as f32).collect();

    let run64 = {
        let mean: f64 = xs64.iter().sum::<f64>() / k as f64;
        let yb: Vec<f64> = xs64.iter().map(|&x| x - mean).collect();
        let mut local = LocalObs::<f64>::new(k);
        local.push(15.0 - mean, 0.5 / 4.0, &yb);
        let mut solver = BatchedEigen::new();
        let mut scratch = TransformScratch::new();
        let mut trans = MatrixS::zeros(k);
        compute_transform(&local, 0.95, 1.0, &mut solver, &mut scratch, &mut trans);
        let mut vals = xs64.clone();
        let mut pert = vec![0.0; k];
        apply_transform(&mut vals, &trans, &mut pert);
        vals.iter().sum::<f64>() / k as f64
    };
    let run32 = {
        let mean: f32 = xs32.iter().sum::<f32>() / k as f32;
        let yb: Vec<f32> = xs32.iter().map(|&x| x - mean).collect();
        let mut local = LocalObs::<f32>::new(k);
        local.push(15.0 - mean, 0.5 / 4.0, &yb);
        let mut solver = BatchedEigen::new();
        let mut scratch = TransformScratch::new();
        let mut trans = MatrixS::zeros(k);
        compute_transform(&local, 0.95, 1.0, &mut solver, &mut scratch, &mut trans);
        let mut vals = xs32.clone();
        let mut pert = vec![0.0f32; k];
        apply_transform(&mut vals, &trans, &mut pert);
        (vals.iter().sum::<f32>() / k as f32) as f64
    };

    assert!(
        (run64 - run32).abs() < 5e-3,
        "posterior means diverged: f64 {run64}, f32 {run32}"
    );
}

#[test]
fn state_size_halves_in_single_precision() {
    // The memory/transfer argument behind the f32 conversion.
    let members64 = vec![vec![0.0_f64; 1000]; 8];
    let members32 = vec![vec![0.0_f32; 1000]; 8];
    let b64 = bda::io::encode_states(&members64).unwrap().len();
    let b32 = bda::io::encode_states(&members32).unwrap().len();
    assert_eq!(b64 - b32, 8 * 1000 * 4, "payload must shrink by half");
}
