//! Model configuration, with defaults reproducing Table 3 of the paper.

use bda_grid::halo::HaloPolicy;
use bda_grid::GridSpec;
use serde::{Deserialize, Serialize};

/// Which physics parameterizations are active (Table 3's physics column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicsSwitches {
    /// Single-moment 6-category cloud microphysics (Tomita 2008 class).
    pub microphysics: bool,
    /// Two-band radiation (MSTRN-X stand-in).
    pub radiation: bool,
    /// Beljaars-type surface fluxes.
    pub surface_flux: bool,
    /// TKE boundary-layer mixing (MYNN level-2.5 class).
    pub boundary_layer: bool,
    /// Smagorinsky-type horizontal turbulence.
    pub turbulence: bool,
}

impl Default for PhysicsSwitches {
    fn default() -> Self {
        Self {
            microphysics: true,
            radiation: true,
            surface_flux: true,
            boundary_layer: true,
            turbulence: true,
        }
    }
}

/// Full model configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    pub grid: GridSpec,
    /// Time-integration step, s (Table 3: 0.4 s for the 500-m inner domain).
    pub dt: f64,
    /// Effective sound speed, m/s. SCALE uses the true ~340 m/s; a reduced
    /// value (the standard quasi-compressible approximation) relaxes the
    /// horizontal acoustic CFL for reduced-scale runs without altering the
    /// convective dynamics. Full-scale default keeps 340.
    pub sound_speed: f64,
    /// Halo filling for the lateral boundaries.
    pub halo: HaloPolicy,
    /// f-plane Coriolis parameter, s^-1 (35 N for the Kanto domain).
    pub coriolis_f: f64,
    /// Davies relaxation rim width in cells (0 disables the rim).
    pub davies_width: usize,
    /// Relaxation e-folding time for the Davies rim, s.
    pub davies_tau: f64,
    /// Smagorinsky constant.
    pub smagorinsky_cs: f64,
    /// Divergence damping coefficient (fraction of cs^2 dt), stabilizing the
    /// forward-backward horizontal acoustics.
    pub divergence_damping: f64,
    /// 4th-order horizontal hyperdiffusion coefficient (nondimensional,
    /// ~1e-3; applied to momentum and theta for grid-noise control).
    pub hyperdiffusion: f64,
    pub physics: PhysicsSwitches,
    /// Prescribed sea/land surface temperature, K.
    pub surface_temperature: f64,
}

impl ModelConfig {
    /// The paper's inner-domain configuration (Table 3): 500 m grid,
    /// 256 x 256 x 60, dt = 0.4 s, full physics.
    pub fn inner_bda2021() -> Self {
        Self {
            grid: GridSpec::inner_bda2021(),
            dt: 0.4,
            sound_speed: 340.0,
            halo: HaloPolicy::Clamp,
            coriolis_f: 2.0 * 7.2921e-5 * (35.0_f64).to_radians().sin(),
            davies_width: 10,
            davies_tau: 60.0,
            smagorinsky_cs: 0.18,
            divergence_damping: 0.05,
            hyperdiffusion: 1e-3,
            physics: PhysicsSwitches::default(),
            surface_temperature: 300.0,
        }
    }

    /// The paper's outer-domain configuration: 1.5 km grid driven by the
    /// JMA-style forcing, dt scaled with the grid spacing.
    pub fn outer_bda2021() -> Self {
        let mut c = Self::inner_bda2021();
        c.grid = GridSpec::outer_bda2021();
        c.dt = 1.2;
        c
    }

    /// A reduced configuration preserving the physical setup on a small grid
    /// for tests and live examples. Uses a moderately reduced sound speed so
    /// a larger `dt` stays acoustically stable.
    pub fn reduced(nx: usize, ny: usize, nz: usize) -> Self {
        let mut c = Self::inner_bda2021();
        c.grid = GridSpec::reduced(nx, ny, nz);
        c.sound_speed = 150.0;
        c.dt = 1.0;
        c.davies_width = if nx >= 16 { 3 } else { 0 };
        c
    }

    /// Largest stable dt for the forward-backward horizontal acoustics,
    /// `dx / (cs * sqrt(2))`, with a 0.9 safety factor.
    pub fn acoustic_dt_limit(&self) -> f64 {
        0.9 * self.grid.dx / (self.sound_speed * std::f64::consts::SQRT_2)
    }

    /// Panics if the configured dt violates the acoustic CFL.
    pub fn validate(&self) {
        assert!(
            self.dt <= self.acoustic_dt_limit(),
            "dt = {} exceeds horizontal acoustic limit {:.3} (dx = {}, cs = {})",
            self.dt,
            self.acoustic_dt_limit(),
            self.grid.dx,
            self.sound_speed
        );
        assert!(self.davies_width * 2 <= self.grid.nx.min(self.grid.ny));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PhysicsSwitches {
        /// Dynamics-only configuration for dry idealized tests.
        pub fn dry() -> Self {
            Self {
                microphysics: false,
                radiation: false,
                surface_flux: false,
                boundary_layer: false,
                turbulence: true,
            }
        }
    }

    #[test]
    fn table3_values() {
        let c = ModelConfig::inner_bda2021();
        assert_eq!(c.dt, 0.4);
        assert_eq!((c.grid.nx, c.grid.ny, c.grid.nz()), (256, 256, 60));
        assert_eq!(c.grid.dx, 500.0);
        assert!(c.physics.microphysics);
        assert!(c.physics.radiation);
        assert!(c.physics.surface_flux);
        assert!(c.physics.boundary_layer);
        assert!(c.physics.turbulence);
        c.validate();
    }

    #[test]
    fn inner_dt_within_acoustic_limit() {
        let c = ModelConfig::inner_bda2021();
        // 500 / (340 * 1.414) ~ 1.04 s > 0.4 s: the paper's dt is comfortably
        // stable under forward-backward acoustics.
        assert!(c.acoustic_dt_limit() > 0.4);
    }

    #[test]
    fn reduced_config_is_valid() {
        ModelConfig::reduced(24, 24, 20).validate();
        ModelConfig::reduced(8, 8, 10).validate();
    }

    #[test]
    #[should_panic]
    fn validate_rejects_acoustically_unstable_dt() {
        let mut c = ModelConfig::reduced(16, 16, 10);
        c.dt = 100.0;
        c.validate();
    }

    #[test]
    fn dry_switches() {
        let p = PhysicsSwitches::dry();
        assert!(!p.microphysics && !p.radiation && !p.surface_flux && !p.boundary_layer);
        assert!(p.turbulence);
    }

    #[test]
    fn coriolis_at_35n_magnitude() {
        let c = ModelConfig::inner_bda2021();
        assert!((c.coriolis_f - 8.365e-5).abs() < 2e-6, "{}", c.coriolis_f);
    }
}
