//! Grid geometry specification.

use serde::{Deserialize, Serialize};

/// Vertical coordinate: cell-center heights and layer thicknesses.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VerticalCoord {
    /// Height of cell centers (m), length `nz`.
    pub z_center: Vec<f64>,
    /// Height of cell faces (m), length `nz + 1`; `z_face[0]` is the surface.
    pub z_face: Vec<f64>,
}

impl VerticalCoord {
    /// Stretched spacing: thin layers near the surface growing geometrically
    /// by `ratio` per layer until `z_top` — the usual NWP arrangement (the
    /// paper's 60 levels over 16.4 km are bottom-refined).
    pub fn stretched(nz: usize, z_top: f64, ratio: f64) -> Self {
        assert!(nz > 0 && z_top > 0.0 && ratio >= 1.0);
        // First thickness chosen so the geometric sum reaches exactly z_top.
        let sum_ratio: f64 = if (ratio - 1.0).abs() < 1e-12 {
            nz as f64
        } else {
            (ratio.powi(nz as i32) - 1.0) / (ratio - 1.0)
        };
        let dz0 = z_top / sum_ratio;
        let mut z_face = Vec::with_capacity(nz + 1);
        z_face.push(0.0);
        let mut dz = dz0;
        let mut prev = 0.0;
        for _ in 0..nz {
            prev += dz;
            z_face.push(prev);
            dz *= ratio;
        }
        // Snap the top face to exactly z_top against rounding drift.
        if let Some(top) = z_face.last_mut() {
            *top = z_top;
        }
        let z_center = (0..nz).map(|k| 0.5 * (z_face[k] + z_face[k + 1])).collect();
        Self { z_center, z_face }
    }

    pub fn nz(&self) -> usize {
        self.z_center.len()
    }

    /// Layer thickness at level `k`.
    pub fn dz(&self, k: usize) -> f64 {
        self.z_face[k + 1] - self.z_face[k]
    }

    pub fn z_top(&self) -> f64 {
        self.z_face.last().copied().unwrap_or(0.0)
    }

    /// Index of the level whose center is closest to height `z` (m).
    pub fn level_of(&self, z: f64) -> usize {
        let mut best = 0;
        let mut bd = f64::INFINITY;
        for (k, &zc) in self.z_center.iter().enumerate() {
            let d = (zc - z).abs();
            if d < bd {
                bd = d;
                best = k;
            }
        }
        best
    }
}

/// A regular limited-area grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    pub nx: usize,
    pub ny: usize,
    /// Horizontal grid spacing (m); dx = dy as in the paper's domains.
    pub dx: f64,
    pub vertical: VerticalCoord,
}

impl GridSpec {
    pub fn new(nx: usize, ny: usize, dx: f64, vertical: VerticalCoord) -> Self {
        assert!(nx > 0 && ny > 0 && dx > 0.0);
        Self {
            nx,
            ny,
            dx,
            vertical,
        }
    }

    /// The paper's inner BDA2021 domain: 256 x 256 x 60 at 500 m over
    /// 128 km x 128 km x 16.4 km (Table 3).
    pub fn inner_bda2021() -> Self {
        Self::new(
            256,
            256,
            500.0,
            VerticalCoord::stretched(60, 16_400.0, 1.04),
        )
    }

    /// The paper's outer domain at 1.5 km grid spacing (Fig. 3b). The paper
    /// does not print the outer extents; we size it to comfortably contain
    /// the inner domain with nesting margin.
    pub fn outer_bda2021() -> Self {
        Self::new(
            192,
            192,
            1500.0,
            VerticalCoord::stretched(60, 16_400.0, 1.04),
        )
    }

    /// A reduced grid preserving aspect ratios, for tests and live examples.
    pub fn reduced(nx: usize, ny: usize, nz: usize) -> Self {
        Self::new(nx, ny, 500.0, VerticalCoord::stretched(nz, 16_400.0, 1.08))
    }

    pub fn nz(&self) -> usize {
        self.vertical.nz()
    }

    pub fn ncells(&self) -> usize {
        self.nx * self.ny * self.nz()
    }

    /// Physical x-coordinate of cell center `i` (m).
    pub fn x_center(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.dx
    }

    /// Physical y-coordinate of cell center `j` (m).
    pub fn y_center(&self, j: usize) -> f64 {
        (j as f64 + 0.5) * self.dx
    }

    /// Domain extent in x (m).
    pub fn lx(&self) -> f64 {
        self.nx as f64 * self.dx
    }

    /// Domain extent in y (m).
    pub fn ly(&self) -> f64 {
        self.ny as f64 * self.dx
    }

    /// Cell index containing physical point (x, y), if inside the domain.
    pub fn cell_of(&self, x: f64, y: f64) -> Option<(usize, usize)> {
        if x < 0.0 || y < 0.0 {
            return None;
        }
        let i = (x / self.dx) as usize;
        let j = (y / self.dx) as usize;
        if i < self.nx && j < self.ny {
            Some((i, j))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretched_with_ratio_one_has_constant_dz() {
        let v = VerticalCoord::stretched(10, 1000.0, 1.0);
        assert_eq!(v.nz(), 10);
        for k in 0..10 {
            assert!((v.dz(k) - 100.0).abs() < 1e-9);
        }
        assert_eq!(v.z_top(), 1000.0);
        assert!((v.z_center[0] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn stretched_vertical_grows_and_hits_top() {
        let v = VerticalCoord::stretched(60, 16_400.0, 1.04);
        assert_eq!(v.nz(), 60);
        assert!((v.z_top() - 16_400.0).abs() < 1e-6);
        // Monotone growth of layer thickness.
        for k in 1..59 {
            assert!(v.dz(k) >= v.dz(k - 1) - 1e-9, "dz shrank at {k}");
        }
        // Bottom layer much thinner than the uniform average.
        assert!(v.dz(0) < 16_400.0 / 60.0);
    }

    #[test]
    fn level_of_picks_nearest_center() {
        let v = VerticalCoord::stretched(4, 400.0, 1.0); // centers 50,150,250,350
        assert_eq!(v.level_of(0.0), 0);
        assert_eq!(v.level_of(160.0), 1);
        assert_eq!(v.level_of(1e9), 3);
    }

    #[test]
    fn inner_bda2021_matches_table3() {
        let g = GridSpec::inner_bda2021();
        assert_eq!((g.nx, g.ny, g.nz()), (256, 256, 60));
        assert_eq!(g.dx, 500.0);
        assert!((g.lx() - 128_000.0).abs() < 1e-6);
        assert!((g.ly() - 128_000.0).abs() < 1e-6);
        assert!((g.vertical.z_top() - 16_400.0).abs() < 1e-6);
    }

    #[test]
    fn cell_of_boundaries() {
        let g = GridSpec::reduced(10, 10, 4);
        assert_eq!(g.cell_of(0.0, 0.0), Some((0, 0)));
        assert_eq!(g.cell_of(4999.0, 250.0), Some((9, 0)));
        assert_eq!(g.cell_of(5000.0, 0.0), None);
        assert_eq!(g.cell_of(-1.0, 0.0), None);
    }

    #[test]
    fn centers_are_offset_half_cell() {
        let g = GridSpec::reduced(4, 4, 2);
        assert!((g.x_center(0) - 250.0).abs() < 1e-9);
        assert!((g.y_center(3) - 1750.0).abs() < 1e-9);
    }
}
