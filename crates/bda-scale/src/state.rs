//! Prognostic model state.

use crate::base::BaseState;
use crate::constants::*;
use bda_grid::halo::HaloPolicy;
use bda_grid::{Field3, GridSpec};
use bda_num::{Real, SplitMix64};
use serde::{Deserialize, Serialize};

/// Halo width used by all model fields (2nd-order stencils + 4th-order
/// hyperdiffusion need two cells).
pub const HALO: usize = 2;

/// The prognostic variables of the SCALE analogue.
///
/// `Theta` and `Pi` are *perturbations* from the balanced base state; winds
/// and water species are full values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrognosticVar {
    U,
    V,
    W,
    Theta,
    Pi,
    Qv,
    Qc,
    Qr,
    Qi,
    Qs,
    Qg,
    Tke,
}

impl PrognosticVar {
    pub const ALL: [PrognosticVar; 12] = [
        PrognosticVar::U,
        PrognosticVar::V,
        PrognosticVar::W,
        PrognosticVar::Theta,
        PrognosticVar::Pi,
        PrognosticVar::Qv,
        PrognosticVar::Qc,
        PrognosticVar::Qr,
        PrognosticVar::Qi,
        PrognosticVar::Qs,
        PrognosticVar::Qg,
        PrognosticVar::Tke,
    ];

    /// Short name matching SCALE-LETKF conventions.
    pub fn name(self) -> &'static str {
        match self {
            PrognosticVar::U => "U",
            PrognosticVar::V => "V",
            PrognosticVar::W => "W",
            PrognosticVar::Theta => "T",
            PrognosticVar::Pi => "P",
            PrognosticVar::Qv => "QV",
            PrognosticVar::Qc => "QC",
            PrognosticVar::Qr => "QR",
            PrognosticVar::Qi => "QI",
            PrognosticVar::Qs => "QS",
            PrognosticVar::Qg => "QG",
            PrognosticVar::Tke => "TKE",
        }
    }

    /// Is this a (non-negative) water species?
    pub fn is_moisture(self) -> bool {
        matches!(
            self,
            PrognosticVar::Qv
                | PrognosticVar::Qc
                | PrognosticVar::Qr
                | PrognosticVar::Qi
                | PrognosticVar::Qs
                | PrognosticVar::Qg
        )
    }
}

/// The set of variables the LETKF analyzes (pressure and TKE are left to the
/// model, as in the SCALE-LETKF radar configuration).
pub const ANALYZED_VARS: [PrognosticVar; 10] = [
    PrognosticVar::U,
    PrognosticVar::V,
    PrognosticVar::W,
    PrognosticVar::Theta,
    PrognosticVar::Qv,
    PrognosticVar::Qc,
    PrognosticVar::Qr,
    PrognosticVar::Qi,
    PrognosticVar::Qs,
    PrognosticVar::Qg,
];

/// Full prognostic state of one ensemble member.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelState<T> {
    pub u: Field3<T>,
    pub v: Field3<T>,
    pub w: Field3<T>,
    /// Potential temperature perturbation from the base state.
    pub theta: Field3<T>,
    /// Exner pressure perturbation from the base state.
    pub pi: Field3<T>,
    pub qv: Field3<T>,
    pub qc: Field3<T>,
    pub qr: Field3<T>,
    pub qi: Field3<T>,
    pub qs: Field3<T>,
    pub qg: Field3<T>,
    pub tke: Field3<T>,
    /// Model time, seconds since the start of the run.
    pub time: f64,
}

impl<T: Real> ModelState<T> {
    /// Quiescent state (everything zero; winds from the base profile must be
    /// imposed by [`Self::init_from_base`]).
    pub fn zeros(grid: &GridSpec) -> Self {
        let f = || Field3::zeros(grid.nx, grid.ny, grid.nz(), HALO);
        Self {
            u: f(),
            v: f(),
            w: f(),
            theta: f(),
            pi: f(),
            qv: f(),
            qc: f(),
            qr: f(),
            qi: f(),
            qs: f(),
            qg: f(),
            tke: f(),
            time: 0.0,
        }
    }

    /// Initialize winds and moisture from the base-state profiles.
    pub fn init_from_base(grid: &GridSpec, base: &BaseState<T>) -> Self {
        let mut s = Self::zeros(grid);
        let (ny, nz) = (grid.ny as isize, grid.nz());
        let rows = s.u.rows_mut().zip(s.v.rows_mut());
        for ((mut u, mut v), (mut qv, mut tke)) in rows.zip(s.qv.rows_mut().zip(s.tke.rows_mut())) {
            for j in 0..ny {
                u.column_mut(j).copy_from_slice(&base.u0[..nz]);
                v.column_mut(j).copy_from_slice(&base.v0[..nz]);
                qv.column_mut(j).copy_from_slice(&base.qv0[..nz]);
                tke.column_mut(j).fill(T::of(0.01));
            }
        }
        s
    }

    /// Borrow a field by variable tag.
    pub fn field(&self, var: PrognosticVar) -> &Field3<T> {
        match var {
            PrognosticVar::U => &self.u,
            PrognosticVar::V => &self.v,
            PrognosticVar::W => &self.w,
            PrognosticVar::Theta => &self.theta,
            PrognosticVar::Pi => &self.pi,
            PrognosticVar::Qv => &self.qv,
            PrognosticVar::Qc => &self.qc,
            PrognosticVar::Qr => &self.qr,
            PrognosticVar::Qi => &self.qi,
            PrognosticVar::Qs => &self.qs,
            PrognosticVar::Qg => &self.qg,
            PrognosticVar::Tke => &self.tke,
        }
    }

    /// Mutably borrow a field by variable tag.
    pub fn field_mut(&mut self, var: PrognosticVar) -> &mut Field3<T> {
        match var {
            PrognosticVar::U => &mut self.u,
            PrognosticVar::V => &mut self.v,
            PrognosticVar::W => &mut self.w,
            PrognosticVar::Theta => &mut self.theta,
            PrognosticVar::Pi => &mut self.pi,
            PrognosticVar::Qv => &mut self.qv,
            PrognosticVar::Qc => &mut self.qc,
            PrognosticVar::Qr => &mut self.qr,
            PrognosticVar::Qi => &mut self.qi,
            PrognosticVar::Qs => &mut self.qs,
            PrognosticVar::Qg => &mut self.qg,
            PrognosticVar::Tke => &mut self.tke,
        }
    }

    /// Fill all halos with the given policy.
    pub fn fill_halos(&mut self, policy: HaloPolicy) {
        for var in PrognosticVar::ALL {
            policy.fill(self.field_mut(var));
        }
    }

    /// Clamp all water species and TKE to be non-negative (positivity is an
    /// invariant the upwind advection preserves but the LETKF update can
    /// break; the paper's system does the same clamping after analysis).
    pub fn clamp_physical(&mut self) {
        for var in PrognosticVar::ALL {
            if var.is_moisture() || var == PrognosticVar::Tke {
                let f = self.field_mut(var);
                for v in f.raw_mut() {
                    *v = (*v).max(T::zero());
                }
            }
        }
    }

    /// Number of state elements per variable.
    pub fn cells(&self) -> usize {
        let (nx, ny, nz, _) = self.u.shape();
        nx * ny * nz
    }

    /// Flatten the given variables (interior only) into one state vector in
    /// variable-major order — the layout shared by the LETKF and the I/O
    /// layer.
    pub fn to_flat(&self, vars: &[PrognosticVar]) -> Vec<T> {
        let mut out = Vec::with_capacity(vars.len() * self.cells());
        for &var in vars {
            out.extend(self.field(var).interior_to_vec());
        }
        out
    }

    /// Scatter a flat state vector (layout of [`Self::to_flat`]) back.
    pub fn from_flat(&mut self, vars: &[PrognosticVar], flat: &[T]) {
        let n = self.cells();
        assert_eq!(flat.len(), vars.len() * n);
        for (vi, &var) in vars.iter().enumerate() {
            self.field_mut(var)
                .interior_from_vec(&flat[vi * n..(vi + 1) * n]);
        }
    }

    /// Total condensate mixing ratio at a cell (liquid + ice).
    pub fn q_condensate(&self, i: isize, j: isize, k: usize) -> T {
        self.qc.at(i, j, k)
            + self.qr.at(i, j, k)
            + self.qi.at(i, j, k)
            + self.qs.at(i, j, k)
            + self.qg.at(i, j, k)
    }

    /// Absolute temperature at a cell, from base + perturbation.
    pub fn temperature(&self, base: &BaseState<T>, i: isize, j: isize, k: usize) -> T {
        (base.theta0[k] + self.theta.at(i, j, k)) * (base.pi0[k] + self.pi.at(i, j, k))
    }

    /// Pressure at a cell, Pa.
    pub fn pressure(&self, base: &BaseState<T>, i: isize, j: isize, k: usize) -> T {
        let pi_total = (base.pi0[k] + self.pi.at(i, j, k)).max(T::of(1e-3));
        T::of(P00) * pi_total.powf(T::of(1.0 / KAPPA))
    }

    /// Insert a warm, moist bubble — the classic convection trigger used by
    /// the nature run and by ensemble perturbations.
    ///
    /// `amplitude` is the peak theta perturbation (K); the moisture anomaly
    /// scales with it at 0.4 g/kg per K.
    #[allow(clippy::too_many_arguments)]
    pub fn add_warm_bubble(
        &mut self,
        grid: &GridSpec,
        xc: f64,
        yc: f64,
        zc: f64,
        radius_h: f64,
        radius_v: f64,
        amplitude: f64,
    ) {
        let nz = grid.nz();
        for i in 0..grid.nx {
            for j in 0..grid.ny {
                let dx = (grid.x_center(i) - xc) / radius_h;
                let dy = (grid.y_center(j) - yc) / radius_h;
                for k in 0..nz {
                    let dz = (grid.vertical.z_center[k] - zc) / radius_v;
                    let r2 = dx * dx + dy * dy + dz * dz;
                    if r2 < 1.0 {
                        let shape = (std::f64::consts::FRAC_PI_2 * r2.sqrt()).cos().powi(2);
                        let dtheta = T::of(amplitude * shape);
                        self.theta.add_at(i as isize, j as isize, k, dtheta);
                        self.qv.add_at(
                            i as isize,
                            j as isize,
                            k,
                            T::of(amplitude * shape * 4.0e-4),
                        );
                    }
                }
            }
        }
    }

    /// Add smooth random perturbations to theta and low-level qv — the
    /// additive ensemble-spread generator (Fig. 3b: "additive ensemble
    /// perturbations"). Noise is smoothed with a 1-2-1 filter so it projects
    /// onto resolvable scales.
    pub fn perturb(&mut self, grid: &GridSpec, rng: &mut SplitMix64, theta_sd: f64, qv_sd: f64) {
        let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz());
        let mut noise_t = vec![0.0f64; nx * ny * nz];
        let mut noise_q = vec![0.0f64; nx * ny * nz];
        for v in &mut noise_t {
            *v = rng.gaussian(0.0, theta_sd);
        }
        for v in &mut noise_q {
            *v = rng.gaussian(0.0, qv_sd);
        }
        smooth121(&mut noise_t, nx, ny, nz);
        smooth121(&mut noise_q, nx, ny, nz);
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    let idx = (i * ny + j) * nz + k;
                    self.theta
                        .add_at(i as isize, j as isize, k, T::of(noise_t[idx]));
                    // Moisture perturbations only below ~5 km where they
                    // matter for convection initiation.
                    if grid.vertical.z_center[k] < 5000.0 {
                        self.qv
                            .add_at(i as isize, j as isize, k, T::of(noise_q[idx]));
                    }
                }
            }
        }
        self.clamp_physical();
    }

    /// True if every prognostic field is finite — the model blow-up guard.
    pub fn all_finite(&self) -> bool {
        PrognosticVar::ALL
            .iter()
            .all(|&v| self.field(v).interior_all_finite())
    }

    /// Linear combination: `self = self * a + other * b` over all fields
    /// (used for ensemble-mean construction).
    pub fn blend(&mut self, a: T, other: &Self, b: T) {
        for var in PrognosticVar::ALL {
            let o = other.field(var).clone();
            let f = self.field_mut(var);
            f.scale(a);
            f.axpy(b, &o);
        }
    }
}

/// In-place 1-2-1 smoothing in i and j (applied independently per level).
fn smooth121(data: &mut [f64], nx: usize, ny: usize, nz: usize) {
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let orig = data.to_vec();
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let im = if i == 0 { 0 } else { i - 1 };
                let ip = (i + 1).min(nx - 1);
                let jm = if j == 0 { 0 } else { j - 1 };
                let jp = (j + 1).min(ny - 1);
                data[idx(i, j, k)] = 0.25 * orig[idx(i, j, k)]
                    + 0.1875 * (orig[idx(im, j, k)] + orig[idx(ip, j, k)])
                    + 0.1875 * (orig[idx(i, jm, k)] + orig[idx(i, jp, k)]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Sounding;

    fn grid() -> GridSpec {
        GridSpec::reduced(8, 8, 6)
    }

    #[test]
    fn init_from_base_sets_winds_and_moisture() {
        let g = grid();
        let b = BaseState::<f64>::from_sounding(&Sounding::convective(), &g.vertical, 340.0);
        let s = ModelState::init_from_base(&g, &b);
        assert_eq!(s.u.at(3, 3, 0), b.u0[0]);
        assert_eq!(s.qv.at(0, 0, 2), b.qv0[2]);
        assert!(s.tke.at(0, 0, 0) > 0.0);
        assert_eq!(s.theta.at(4, 4, 3), 0.0);
    }

    #[test]
    fn flat_roundtrip_over_analyzed_vars() {
        let g = grid();
        let mut s = ModelState::<f64>::zeros(&g);
        s.theta.set(2, 3, 1, 1.5);
        s.qr.set(5, 5, 2, 3.2e-3);
        let flat = s.to_flat(&ANALYZED_VARS);
        assert_eq!(flat.len(), ANALYZED_VARS.len() * 8 * 8 * 6);
        let mut t = ModelState::<f64>::zeros(&g);
        t.from_flat(&ANALYZED_VARS, &flat);
        assert_eq!(t.theta.at(2, 3, 1), 1.5);
        assert_eq!(t.qr.at(5, 5, 2), 3.2e-3);
    }

    #[test]
    fn clamp_physical_removes_negative_moisture_only() {
        let g = grid();
        let mut s = ModelState::<f64>::zeros(&g);
        s.qv.set(1, 1, 1, -0.002);
        s.theta.set(1, 1, 1, -5.0);
        s.clamp_physical();
        assert_eq!(s.qv.at(1, 1, 1), 0.0);
        assert_eq!(s.theta.at(1, 1, 1), -5.0); // temperature may be negative
    }

    #[test]
    fn warm_bubble_is_localized_and_positive() {
        let g = grid();
        let mut s = ModelState::<f64>::zeros(&g);
        s.add_warm_bubble(&g, 2000.0, 2000.0, 1500.0, 1200.0, 1500.0, 3.0);
        // Center cell warmed; far corner untouched.
        let (ic, jc) = g.cell_of(2000.0, 2000.0).unwrap();
        let kc = g.vertical.level_of(1500.0);
        assert!(s.theta.at(ic as isize, jc as isize, kc) > 1.0);
        assert_eq!(s.theta.at(7, 7, 5), 0.0);
        assert!(s.qv.at(ic as isize, jc as isize, kc) > 0.0);
    }

    #[test]
    fn perturb_changes_state_reproducibly() {
        let g = grid();
        let mut s1 = ModelState::<f32>::zeros(&g);
        let mut s2 = ModelState::<f32>::zeros(&g);
        let mut r1 = SplitMix64::new(5);
        let mut r2 = SplitMix64::new(5);
        s1.perturb(&g, &mut r1, 0.5, 2e-4);
        s2.perturb(&g, &mut r2, 0.5, 2e-4);
        assert_eq!(s1, s2);
        assert!(s1.theta.interior_max_abs() > 0.0);
        // qv clamped non-negative.
        for i in 0..8 {
            for j in 0..8 {
                for k in 0..6 {
                    assert!(s1.qv.at(i, j, k) >= 0.0);
                }
            }
        }
    }

    #[test]
    fn q_condensate_sums_species() {
        let g = grid();
        let mut s = ModelState::<f64>::zeros(&g);
        s.qc.set(0, 0, 0, 1e-3);
        s.qr.set(0, 0, 0, 2e-3);
        s.qg.set(0, 0, 0, 0.5e-3);
        assert!((s.q_condensate(0, 0, 0) - 3.5e-3).abs() < 1e-12);
    }

    #[test]
    fn temperature_and_pressure_are_physical() {
        let g = grid();
        let b = BaseState::<f64>::from_sounding(&Sounding::dry_stable(), &g.vertical, 340.0);
        let s = ModelState::init_from_base(&g, &b);
        let t = s.temperature(&b, 0, 0, 0);
        assert!((250.0..320.0).contains(&t), "T = {t}");
        let p = s.pressure(&b, 0, 0, 0);
        assert!((80_000.0..102_000.0).contains(&p), "p = {p}");
    }

    #[test]
    fn blend_produces_weighted_average() {
        let g = grid();
        let mut a = ModelState::<f64>::zeros(&g);
        let mut b = ModelState::<f64>::zeros(&g);
        a.theta.set(1, 1, 1, 2.0);
        b.theta.set(1, 1, 1, 6.0);
        a.blend(0.5, &b, 0.5);
        assert_eq!(a.theta.at(1, 1, 1), 4.0);
    }

    #[test]
    fn all_finite_detects_blowup() {
        let g = grid();
        let mut s = ModelState::<f64>::zeros(&g);
        assert!(s.all_finite());
        s.w.set(3, 3, 3, f64::INFINITY);
        assert!(!s.all_finite());
    }

    #[test]
    fn field_accessors_agree() {
        let g = grid();
        let mut s = ModelState::<f64>::zeros(&g);
        s.field_mut(PrognosticVar::Qs).set(1, 2, 3, 9.0);
        assert_eq!(s.qs.at(1, 2, 3), 9.0);
        assert_eq!(s.field(PrognosticVar::Qs).at(1, 2, 3), 9.0);
    }

    #[test]
    fn var_names_are_unique() {
        let mut names: Vec<&str> = PrognosticVar::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PrognosticVar::ALL.len());
    }
}
