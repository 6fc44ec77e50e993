//! 2-D horizontal tile decomposition.
//!
//! The paper runs SCALE-LETKF over thousands of Fugaku nodes with a 2-D
//! horizontal domain decomposition; here the same split cuts the domain
//! into the shard federation's x-strips.

use serde::{Deserialize, Serialize};

/// One rectangular tile of the horizontal domain: `i0 <= i < i1`,
/// `j0 <= j < j1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tile {
    pub i0: usize,
    pub i1: usize,
    pub j0: usize,
    pub j1: usize,
}

impl Tile {
    pub fn cells(&self) -> usize {
        (self.i1 - self.i0) * (self.j1 - self.j0)
    }

    pub fn contains(&self, i: usize, j: usize) -> bool {
        i >= self.i0 && i < self.i1 && j >= self.j0 && j < self.j1
    }
}

/// A decomposition of an `nx x ny` horizontal domain into `px x py` tiles.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TileDecomp {
    pub nx: usize,
    pub ny: usize,
    pub px: usize,
    pub py: usize,
    tiles: Vec<Tile>,
}

impl TileDecomp {
    /// Split as evenly as possible; earlier tiles get the remainder cells,
    /// matching the MPI decomposition convention.
    pub fn new(nx: usize, ny: usize, px: usize, py: usize) -> Self {
        assert!(px > 0 && py > 0 && px <= nx && py <= ny);
        let cuts = |n: usize, p: usize| -> Vec<usize> {
            let base = n / p;
            let rem = n % p;
            let mut edges = Vec::with_capacity(p + 1);
            let mut acc = 0;
            edges.push(0);
            for r in 0..p {
                acc += base + usize::from(r < rem);
                edges.push(acc);
            }
            edges
        };
        let xe = cuts(nx, px);
        let ye = cuts(ny, py);
        let mut tiles = Vec::with_capacity(px * py);
        for a in 0..px {
            for b in 0..py {
                tiles.push(Tile {
                    i0: xe[a],
                    i1: xe[a + 1],
                    j0: ye[b],
                    j1: ye[b + 1],
                });
            }
        }
        Self {
            nx,
            ny,
            px,
            py,
            tiles,
        }
    }

    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_partition_domain_exactly() {
        let d = TileDecomp::new(10, 7, 3, 2);
        let total: usize = d.tiles().iter().map(Tile::cells).sum();
        assert_eq!(total, 70);
        // Every cell owned exactly once.
        for i in 0..10 {
            for j in 0..7 {
                let owners = d.tiles().iter().filter(|t| t.contains(i, j)).count();
                assert_eq!(owners, 1, "cell ({i},{j}) owned {owners} times");
            }
        }
    }

    #[test]
    fn uneven_split_puts_remainder_first() {
        let d = TileDecomp::new(10, 10, 3, 1);
        let widths: Vec<usize> = d.tiles().iter().map(|t| t.i1 - t.i0).collect();
        assert_eq!(widths, vec![4, 3, 3]);
    }
}
