//! One-way nesting: outer-domain fields drive the inner-domain boundary.
//!
//! Fig. 3b of the paper: the 1000-member outer SCALE ensemble at 1.5-km
//! spacing (driven by the JMA boundary data) provides the lateral boundary
//! condition for the 1000-member inner 500-m ensemble. This module provides
//! the interpolation from an outer-domain state to inner-domain boundary
//! target fields, applied through the Davies rim of `bda_grid::boundary`.

use crate::state::{ModelState, HALO};
use bda_grid::{Field3, GridSpec};
use bda_num::Real;

/// Boundary target fields for Davies relaxation (same shape as the inner
/// domain; only the rim values are actually used).
#[derive(Clone, Debug)]
pub struct BoundaryFields<T> {
    pub u: Field3<T>,
    pub v: Field3<T>,
    pub theta: Field3<T>,
    pub qv: Field3<T>,
}

impl<T: Real> BoundaryFields<T> {
    pub fn zeros(grid: &GridSpec) -> Self {
        let f = || Field3::zeros(grid.nx, grid.ny, grid.nz(), HALO);
        Self {
            u: f(),
            v: f(),
            theta: f(),
            qv: f(),
        }
    }
}

/// Bilinear interpolation of an outer-domain cell-centered field to a
/// physical point (x, y) at level k. Points outside the outer domain are
/// clamped to its edge.
fn bilinear<T: Real>(field: &Field3<T>, outer: &GridSpec, x: f64, y: f64, k: usize) -> T {
    // Continuous cell-center coordinates.
    let fx = (x / outer.dx - 0.5).clamp(0.0, (outer.nx - 1) as f64);
    let fy = (y / outer.dx - 0.5).clamp(0.0, (outer.ny - 1) as f64);
    let i0 = fx.floor() as usize;
    let j0 = fy.floor() as usize;
    let i1 = (i0 + 1).min(outer.nx - 1);
    let j1 = (j0 + 1).min(outer.ny - 1);
    let wx = T::of(fx - i0 as f64);
    let wy = T::of(fy - j0 as f64);
    let one = T::one();
    field.at(i0 as isize, j0 as isize, k) * (one - wx) * (one - wy)
        + field.at(i1 as isize, j0 as isize, k) * wx * (one - wy)
        + field.at(i0 as isize, j1 as isize, k) * (one - wx) * wy
        + field.at(i1 as isize, j1 as isize, k) * wx * wy
}

/// Interpolate an outer-domain state onto inner-domain boundary targets.
///
/// `offset` is the position of the inner domain's origin inside the outer
/// domain (m). Vertical levels must match between the domains (both BDA2021
/// domains share the 60-level column; asserted here).
pub fn outer_to_inner_boundary<T: Real>(
    outer_state: &ModelState<T>,
    outer_grid: &GridSpec,
    inner_grid: &GridSpec,
    offset: (f64, f64),
) -> BoundaryFields<T> {
    assert_eq!(
        outer_grid.nz(),
        inner_grid.nz(),
        "nesting requires matching vertical levels"
    );
    let mut out = BoundaryFields::zeros(inner_grid);
    let nz = inner_grid.nz();
    for i in 0..inner_grid.nx {
        for j in 0..inner_grid.ny {
            let x = offset.0 + inner_grid.x_center(i);
            let y = offset.1 + inner_grid.y_center(j);
            for k in 0..nz {
                out.u.set(
                    i as isize,
                    j as isize,
                    k,
                    bilinear(&outer_state.u, outer_grid, x, y, k),
                );
                out.v.set(
                    i as isize,
                    j as isize,
                    k,
                    bilinear(&outer_state.v, outer_grid, x, y, k),
                );
                out.theta.set(
                    i as isize,
                    j as isize,
                    k,
                    bilinear(&outer_state.theta, outer_grid, x, y, k),
                );
                out.qv.set(
                    i as isize,
                    j as isize,
                    k,
                    bilinear(&outer_state.qv, outer_grid, x, y, k),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_grid::VerticalCoord;

    fn outer_grid() -> GridSpec {
        GridSpec::new(12, 12, 1500.0, VerticalCoord::stretched(4, 4000.0, 1.0))
    }

    fn inner_grid() -> GridSpec {
        GridSpec::new(9, 9, 500.0, VerticalCoord::stretched(4, 4000.0, 1.0))
    }

    #[test]
    fn constant_outer_field_interpolates_exactly() {
        let og = outer_grid();
        let ig = inner_grid();
        let mut outer = ModelState::<f64>::zeros(&og);
        outer.u.fill(7.0);
        let b = outer_to_inner_boundary(&outer, &og, &ig, (3000.0, 3000.0));
        for i in 0..ig.nx {
            for j in 0..ig.ny {
                assert!((b.u.at(i as isize, j as isize, 0) - 7.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn linear_outer_field_reproduced_in_interior() {
        let og = outer_grid();
        let ig = inner_grid();
        let mut outer = ModelState::<f64>::zeros(&og);
        // theta' = x / 1000 (linear in physical x).
        for i in 0..og.nx {
            for j in 0..og.ny {
                for k in 0..og.nz() {
                    outer
                        .theta
                        .set(i as isize, j as isize, k, og.x_center(i) / 1000.0);
                }
            }
        }
        let off = (4500.0, 4500.0);
        let b = outer_to_inner_boundary(&outer, &og, &ig, off);
        for i in 0..ig.nx {
            let x = off.0 + ig.x_center(i);
            let got = b.theta.at(i as isize, 4, 0);
            assert!(
                (got - x / 1000.0).abs() < 1e-9,
                "x = {x}: got {got}, want {}",
                x / 1000.0
            );
        }
    }

    #[test]
    fn out_of_bounds_points_clamp_to_edge() {
        let og = outer_grid();
        let ig = inner_grid();
        let mut outer = ModelState::<f64>::zeros(&og);
        for i in 0..og.nx {
            for j in 0..og.ny {
                outer.qv.set(i as isize, j as isize, 0, i as f64);
            }
        }
        // Negative offset puts part of the inner domain outside the outer.
        let b = outer_to_inner_boundary(&outer, &og, &ig, (-5000.0, 0.0));
        // Leftmost inner columns clamp to outer column 0.
        assert_eq!(b.qv.at(0, 0, 0), 0.0);
        assert!(b.qv.at(8, 0, 0) >= 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_levels_rejected() {
        let og = outer_grid();
        let ig = GridSpec::new(9, 9, 500.0, VerticalCoord::stretched(6, 4000.0, 1.0));
        let outer = ModelState::<f64>::zeros(&og);
        let _ = outer_to_inner_boundary(&outer, &og, &ig, (0.0, 0.0));
    }
}
