//! Domain decomposition for the shard federation.
//!
//! The LETKF analysis is independent per grid point (the whole reason the
//! paper could spread it over 11,580 nodes), so the federation splits the
//! domain into `S` x-strips via [`bda_grid::decomp::TileDecomp`] — the
//! same remainder-first cuts the in-process thread pool uses. Each shard
//! analyzes only its own strip and publishes it as a "halo" to every peer.
//! Strips are cut from, and applied to, the member fields themselves: an
//! interior x-row of a [`Field3`] is one contiguous `ny * nz` run, so a
//! strip is a `copy_from_slice` per analysed variable and row, in the
//! member-flat order `((v * nx + i) * ny + j) * nz + k` of
//! `ModelState::to_flat(&ANALYZED_VARS)`.

use bda_grid::decomp::TileDecomp;
use bda_grid::Field3;
use bda_letkf::StateLayout;
use bda_num::Real;
use bda_scale::{ModelState, ANALYZED_VARS};
use std::ops::Range;

/// The x-strip decomposition of the analysis domain across `n_shards`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    regions: Vec<(usize, usize)>,
}

impl ShardLayout {
    /// Cut `layout`'s x axis into `n_shards` strips (remainder-first, the
    /// [`TileDecomp`] convention, so widths differ by at most one).
    pub fn new(layout: &StateLayout, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(
            n_shards <= layout.nx,
            "{n_shards} shards over {} columns",
            layout.nx
        );
        let decomp = TileDecomp::new(layout.nx, layout.ny, n_shards, 1);
        let regions = decomp.tiles().iter().map(|t| (t.i0, t.i1)).collect();
        Self {
            nx: layout.nx,
            ny: layout.ny,
            nz: layout.nz,
            regions,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.regions.len()
    }

    /// The half-open x-range `[i0, i1)` owned by shard `s`.
    pub fn region(&self, s: usize) -> (usize, usize) {
        self.regions[s]
    }

    /// Flat length of shard `s`'s strip (per member): every analysed
    /// variable over its columns.
    pub fn strip_len(&self, s: usize) -> usize {
        let (i0, i1) = self.region(s);
        ANALYZED_VARS.len() * (i1 - i0) * self.ny * self.nz
    }

    /// Copy shard `s`'s strip out of `member`'s analysed fields.
    pub fn extract_strip<T: Real>(&self, member: &ModelState<T>, s: usize) -> Vec<T> {
        let (i0, i1) = self.region(s);
        let mut strip = Vec::with_capacity(self.strip_len(s));
        for var in ANALYZED_VARS {
            let f = member.field(var);
            for i in i0..i1 {
                strip.extend_from_slice(&f.raw()[row_span(f, i)]);
            }
        }
        strip
    }

    /// Overwrite shard `s`'s strip in `member`'s analysed fields — the
    /// inverse of [`ShardLayout::extract_strip`].
    pub fn apply_strip<T: Real>(&self, member: &mut ModelState<T>, s: usize, strip: &[T]) {
        assert_eq!(strip.len(), self.strip_len(s), "strip length mismatch");
        let (i0, i1) = self.region(s);
        let plane = self.ny * self.nz;
        let per_var = strip.chunks_exact((i1 - i0) * plane);
        for (f, var_strip) in member.analyzed_fields_mut().into_iter().zip(per_var) {
            for (mut row, src) in f.rows_mut().skip(i0).zip(var_strip.chunks_exact(plane)) {
                row.interior_mut().copy_from_slice(src);
            }
        }
    }

    /// The bottom rung short of forecast-only: shard `s` is dead and no
    /// halo for its strip exists at all, so a surviving peer widens its
    /// boundary assumption into the orphaned strip of `member` — every
    /// orphaned column is filled from the nearest column outside the
    /// strip, the clamp-extension boundary condition of
    /// [`bda_grid::halo`]'s
    /// [`HaloPolicy::Clamp`](bda_grid::halo::HaloPolicy) applied at shard
    /// granularity. Columns left of the strip midpoint clamp to the left
    /// neighbour, the rest to the right (whichever exists).
    pub fn widen_into_strip<T: Real>(&self, member: &mut ModelState<T>, s: usize) {
        let (i0, i1) = self.region(s);
        if i0 == 0 && i1 == self.nx {
            return; // a single-shard layout has no peers to widen for
        }
        let mid = i0 + (i1 - i0).div_ceil(2);
        for f in member.analyzed_fields_mut() {
            for i in i0..i1 {
                let src = if (i < mid && i0 > 0) || i1 == self.nx {
                    i0 - 1
                } else {
                    i1
                };
                let (from, to) = (row_span(f, src), row_span(f, i).start);
                f.raw_mut().copy_within(from, to);
            }
        }
    }
}

/// Where interior x-row `i`'s interior columns sit in `f`'s storage: one
/// contiguous `ny * nz` run, in the member-flat order.
fn row_span<T: Real>(f: &Field3<T>, i: usize) -> Range<usize> {
    let (halo, ny, nz) = (f.halo(), f.ny(), f.nz());
    let start = ((halo + i) * (ny + 2 * halo) + halo) * nz;
    start..start + ny * nz
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_grid::GridSpec;

    fn layout(nx: usize) -> StateLayout {
        StateLayout {
            nx,
            ny: 3,
            nz: 2,
            nvar: ANALYZED_VARS.len(),
            dx: 500.0,
            z_center: vec![250.0, 750.0],
        }
    }

    fn member(sl: &ShardLayout) -> ModelState<f64> {
        ModelState::zeros(&GridSpec::reduced(sl.nx, sl.ny, sl.nz))
    }

    #[test]
    fn regions_tile_the_x_axis_remainder_first() {
        let sl = ShardLayout::new(&layout(10), 3);
        assert_eq!(sl.region(0), (0, 4));
        assert_eq!(sl.region(1), (4, 7));
        assert_eq!(sl.region(2), (7, 10));
        assert_eq!(
            (0..3).map(|s| sl.strip_len(s)).sum::<usize>(),
            ANALYZED_VARS.len() * sl.nx * sl.ny * sl.nz
        );
    }

    #[test]
    fn extract_apply_round_trips_and_tiles_exactly() {
        let sl = ShardLayout::new(&layout(7), 2);
        // Every stored value distinct and non-zero, halos included.
        let mut full = member(&sl);
        let mut n = 0.0;
        for f in full.analyzed_fields_mut() {
            for v in f.raw_mut() {
                n += 1.0;
                *v = n;
            }
        }
        let flat = full.to_flat(&ANALYZED_VARS);
        let plane = sl.ny * sl.nz;
        let mut rebuilt = member(&sl);
        for s in 0..2 {
            let strip = sl.extract_strip(&full, s);
            assert_eq!(strip.len(), sl.strip_len(s));
            // Per variable, the member flat's contiguous run of rows i0..i1.
            let (i0, i1) = sl.region(s);
            let runs = (0..ANALYZED_VARS.len())
                .flat_map(|v| &flat[(v * sl.nx + i0) * plane..(v * sl.nx + i1) * plane]);
            assert!(
                strip.iter().eq(runs),
                "shard {s}: strip not in member-flat order"
            );
            sl.apply_strip(&mut rebuilt, s, &strip);
        }
        assert_eq!(rebuilt.to_flat(&ANALYZED_VARS), flat);
        // Halos are never written.
        for var in ANALYZED_VARS {
            let written = rebuilt.field(var).raw().iter().filter(|&&v| v != 0.0);
            assert_eq!(written.count(), sl.nx * sl.ny * sl.nz);
        }
    }

    #[test]
    fn widen_clamps_orphaned_columns_to_nearest_neighbour() {
        // Strips of 2 columns; column i carries the constant value i in
        // every var.
        let sl = ShardLayout::new(&layout(6), 3);
        let mut m = member(&sl);
        for f in m.analyzed_fields_mut() {
            for i in 0..sl.nx {
                let span = row_span(f, i);
                f.raw_mut()[span].fill(i as f64);
            }
        }
        let is = |m: &ModelState<f64>, i: usize, value: f64| {
            ANALYZED_VARS.iter().all(|&v| {
                let f = m.field(v);
                f.raw()[row_span(f, i)].iter().all(|&x| x == value)
            })
        };
        // Middle shard (columns 2,3) dies: 2 clamps left (column 1),
        // 3 clamps right (column 4).
        sl.widen_into_strip(&mut m, 1);
        assert!(is(&m, 2, 1.0));
        assert!(is(&m, 3, 4.0));
        assert!(is(&m, 1, 1.0));
        assert!(is(&m, 4, 4.0));
        // Edge shard 0 dies: both its columns clamp right.
        sl.widen_into_strip(&mut m, 0);
        assert!(is(&m, 0, 1.0));
        assert!(is(&m, 1, 1.0));
    }
}
