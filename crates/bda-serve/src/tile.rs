//! Quantized reflectivity tile codec.
//!
//! The 30-second nowcast product is a 2-D composite reflectivity field in
//! dBZ. Broadcasting it raw (8 bytes per cell, every cycle, to every
//! subscriber) would make the egress link the new bottleneck, so the codec
//! applies the standard product pipeline:
//!
//! 1. **quantize** — dBZ to `u8` at 0.5 dB steps from −30 dBZ
//!    ([`quantize_dbz`]); rain-rate displays do not resolve finer than
//!    that, and NaN/∞ from a degraded forecast clamp into the palette
//!    instead of poisoning the stream;
//! 2. **pyramid** — zoom levels by 2×2 max-pooling ([`QuantGrid::coarsen`];
//!    max, not mean: an overview tile must not dilute a storm core away);
//! 3. **tile** — each level is cut into [`TileConfig::tile`]-sized tiles so
//!    a viewer fetches only its viewport;
//! 4. **delta** — each level is wrapping-subtracted from the same level of
//!    the previous cycle ([`make_delta`]), so each tile's delta is the same
//!    tile of that plane; on a 30-s cadence most cells are unchanged, so
//!    the run-length stage collapses deltas to near nothing;
//! 5. **run-length encode** — `(run, value)` byte pairs ([`rle_encode`]),
//!    read straight from the rows of a level or of its delta plane, with
//!    no per-tile copy of the cells;
//! 6. **seal** — one [`bda_io::frame`] envelope (`BDAT`; byte layout in
//!    DESIGN.md, "Sealed frames"), so a damaged or truncated tile is a
//!    typed [`TileError`] at the client, never a corrupt render.
//!
//! The [`Tiler`] holds the previous cycle's pyramid and emits both the
//! delta stream (what live subscribers get) and the key-frame snapshot
//! (what late joiners need), in a deterministic tile order. Tile payload
//! encoding runs on the rayon pool; the vendor pool's fixed-chunk contract
//! makes the emitted byte stream identical for any `BDA_THREADS`.

use bda_io::frame::{self, FrameError, Kind};
use bda_num::cast::{round_u8_sat, u16_of_index};
use bytes::{Buf, BufMut, Bytes};
use rayon::prelude::*;

/// Version 1 was today's layout under an FNV-1a trailer; it is refused as
/// [`FrameError::UnsupportedVersion`], not misread.
const VERSION: u16 = 2;
/// cycle u64 | zoom u8 | tx, ty, w, h u16 | flags u8 | payload length u32,
/// ahead of the RLE payload.
const FIXED_BYTES: usize = 8 + 1 + 2 + 2 + 2 + 2 + 1 + 4;

const FLAG_STALE: u8 = 0b0000_0001;
const FLAG_DELTA: u8 = 0b0000_0010;

/// dBZ mapped to quantization step 0: the floor of the palette.
pub const DBZ_FLOOR: f64 = -30.0;
/// dB per quantization step.
pub const DBZ_STEP: f64 = 0.5;

/// Quantize one dBZ value to its palette index. Saturates at the palette
/// bounds; NaN (a poisoned cell that slipped through the health scan)
/// lands on the floor, i.e. "no echo", rather than aborting the product.
#[inline]
pub fn quantize_dbz(dbz: f64) -> u8 {
    round_u8_sat((dbz - DBZ_FLOOR) / DBZ_STEP)
}

/// Tiling parameters.
#[derive(Clone, Copy, Debug)]
pub struct TileConfig {
    /// Tile edge in cells; edge tiles are smaller when the grid does not
    /// divide evenly.
    pub tile: usize,
    /// Coarsest zoom level (0 = native resolution); level `z` is the
    /// native grid max-pooled `z` times.
    pub max_zoom: u8,
}

impl Default for TileConfig {
    fn default() -> Self {
        Self {
            tile: 32,
            max_zoom: 2,
        }
    }
}

/// One zoom level's quantized grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantGrid {
    pub w: usize,
    pub h: usize,
    pub q: Vec<u8>,
}

impl QuantGrid {
    /// Quantize a row-major dBZ field. `field.len()` must be `w * h`.
    pub fn quantize(field: &[f64], w: usize, h: usize) -> Result<Self, TileError> {
        if field.len() != w * h {
            return Err(TileError::FieldShape {
                cells: field.len(),
                w,
                h,
            });
        }
        Ok(Self {
            w,
            h,
            q: field.iter().map(|&v| quantize_dbz(v)).collect(),
        })
    }

    /// Next zoom level: 2×2 max-pooling (odd edges pool what exists).
    ///
    /// Each output row reads one pair of input rows (an odd `h`'s last row
    /// pairs with itself), and each output cell one column pair of them;
    /// only an odd `w`'s last column pools a single column.
    pub fn coarsen(&self) -> Self {
        let w = self.w.div_ceil(2).max(1);
        let h = self.h.div_ceil(2).max(1);
        let mut q = vec![0u8; w * h];
        if self.q.is_empty() {
            return Self { w, h, q };
        }
        let mut rows = self.q.chunks_exact(self.w);
        for out in q.chunks_exact_mut(w) {
            let Some(a) = rows.next() else { break };
            let b = rows.next().unwrap_or(a);
            let (a_pairs, a_odd) = a.as_chunks::<2>();
            let (b_pairs, b_odd) = b.as_chunks::<2>();
            for ((o, pa), pb) in out.iter_mut().zip(a_pairs).zip(b_pairs) {
                *o = pa[0].max(pa[1]).max(pb[0].max(pb[1]));
            }
            if let (Some(o), [x], [y]) = (out.last_mut(), a_odd, b_odd) {
                *o = (*x).max(*y);
            }
        }
        Self { w, h, q }
    }
}

/// One tile of a zoom level: where it sits and its (possibly clipped)
/// extent, in cells.
#[derive(Clone, Copy, Debug)]
struct TileSpan {
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
}

impl TileSpan {
    /// The tile at tile coordinates `(tx, ty)` of a `w`×`h` level, for
    /// tile edge `tile`.
    fn new(tile: usize, tx: usize, ty: usize, w: usize, h: usize) -> Self {
        let (x0, y0) = (tx * tile, ty * tile);
        Self {
            x0,
            y0,
            w: tile.min(w - x0),
            h: tile.min(h - y0),
        }
    }

    /// Run-length encode this tile of a row-major plane `width` cells
    /// wide, reading its rows where they lie: no copy of the cells. The
    /// tile must have cells, so `width` is at least 1.
    fn rle(&self, plane: &[u8], width: usize) -> Vec<u8> {
        let mut rle = Rle::with_capacity(self.w * self.h);
        for row in plane.chunks_exact(width).skip(self.y0).take(self.h) {
            rle.feed(&row[self.x0..self.x0 + self.w]);
        }
        rle.finish()
    }
}

/// What [`decode_tile`] rejects. Every variant is a hostile-input or
/// wire-damage condition a subscriber must survive as a typed error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TileError {
    /// The envelope was rejected (wire damage, not a tile frame, another
    /// codec revision), or the body is shorter than its fixed fields.
    Frame(FrameError),
    /// The declared payload length disagrees with the bytes present.
    PayloadLength { declared: usize, got: usize },
    /// An RLE run of length zero: cannot be produced by the encoder.
    ZeroRun,
    /// A dangling run byte with no value byte.
    DanglingRun,
    /// RLE expanded to a cell count other than `w * h`.
    CellCount { expected: usize, got: usize },
    /// A zero-area tile: `w` or `h` of 0 cannot be produced by the tiler.
    EmptyTile,
    /// Encode-side: the field slice does not match the declared dims.
    FieldShape { cells: usize, w: usize, h: usize },
    /// Delta application against a base of the wrong size.
    BaseMismatch { base: usize, delta: usize },
}

impl std::fmt::Display for TileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TileError::Frame(e) => write!(f, "tile frame: {e}"),
            TileError::PayloadLength { declared, got } => {
                write!(f, "payload length {declared} declared, {got} present")
            }
            TileError::ZeroRun => write!(f, "zero-length RLE run"),
            TileError::DanglingRun => write!(f, "dangling RLE run byte"),
            TileError::CellCount { expected, got } => {
                write!(f, "tile decoded to {got} cells, header says {expected}")
            }
            TileError::EmptyTile => write!(f, "zero-area tile"),
            TileError::FieldShape { cells, w, h } => {
                write!(f, "field has {cells} cells, dims say {w}x{h}")
            }
            TileError::BaseMismatch { base, delta } => {
                write!(f, "delta of {delta} cells against base of {base}")
            }
        }
    }
}

impl std::error::Error for TileError {}

impl From<FrameError> for TileError {
    fn from(e: FrameError) -> Self {
        TileError::Frame(e)
    }
}

/// Run-length encode: `(run, value)` byte pairs, runs capped at 255.
/// The one-slice form of the encoder the tiler feeds row by row.
// bda-check: allow(uncalled_pub) -- the inverse of `rle_decode`: the codec's property tests round-trip through it
pub fn rle_encode(cells: &[u8]) -> Vec<u8> {
    let mut rle = Rle::with_capacity(cells.len());
    rle.feed(cells);
    rle.finish()
}

/// The run-length encoder, fed a slice at a time; a run carries across
/// [`Rle::feed`] calls, so a tile's rows encode as one cell stream. Each
/// run is found by one scan for the first cell that differs, then written
/// as its pairs.
struct Rle {
    out: Vec<u8>,
    value: u8,
    /// Cells in the open run; 0 before the first cell.
    run: usize,
}

impl Rle {
    /// An encoder for about `cells` cells. Its output is reserved at a
    /// quarter of the worst case (two bytes a cell) and grows past that.
    fn with_capacity(cells: usize) -> Self {
        Self {
            out: Vec::with_capacity((cells / 2).max(2)),
            value: 0,
            run: 0,
        }
    }

    fn feed(&mut self, mut cells: &[u8]) {
        while let Some(&first) = cells.first() {
            if self.run > 0 && first != self.value {
                self.close();
            }
            self.value = first;
            let same = cells
                .iter()
                .position(|&c| c != first)
                .unwrap_or(cells.len());
            self.run += same;
            cells = &cells[same..];
        }
    }

    /// Write the open run: full 255-cell pairs, then the remainder.
    fn close(&mut self) {
        while self.run > 255 {
            self.out.extend_from_slice(&[u8::MAX, self.value]);
            self.run -= 255;
        }
        if self.run > 0 {
            self.out
                .extend_from_slice(&[bda_num::cast::u8_of_index(self.run), self.value]);
            self.run = 0;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        self.close();
        self.out
    }
}

/// Decode an RLE stream, checking it expands to exactly `expected` cells.
///
/// Every run is checked before anything is allocated, so the output is
/// reserved once, at `expected` cells, which the runs present then bound.
pub fn rle_decode(rle: &[u8], expected: usize) -> Result<Vec<u8>, TileError> {
    let (pairs, []) = rle.as_chunks::<2>() else {
        return Err(TileError::DanglingRun);
    };
    let mut got = 0usize;
    for &[run, _] in pairs {
        if run == 0 {
            return Err(TileError::ZeroRun);
        }
        got += usize::from(run);
        if got > expected {
            // Hostile length: stop before allocating past the declared
            // cell count.
            return Err(TileError::CellCount { expected, got });
        }
    }
    if got != expected {
        return Err(TileError::CellCount { expected, got });
    }
    let mut out = Vec::with_capacity(expected);
    for &[run, value] in pairs {
        out.resize(out.len() + usize::from(run), value);
    }
    Ok(out)
}

/// Per-cell wrapping difference `cur - prev` (same-length slices).
pub fn make_delta(prev: &[u8], cur: &[u8]) -> Result<Vec<u8>, TileError> {
    if prev.len() != cur.len() {
        return Err(TileError::BaseMismatch {
            base: prev.len(),
            delta: cur.len(),
        });
    }
    Ok(cur
        .iter()
        .zip(prev)
        .map(|(c, p)| c.wrapping_sub(*p))
        .collect())
}

/// Reconstruct `cur` from `prev` and a wrapping delta.
pub fn apply_delta(prev: &[u8], delta: &[u8]) -> Result<Vec<u8>, TileError> {
    if prev.len() != delta.len() {
        return Err(TileError::BaseMismatch {
            base: prev.len(),
            delta: delta.len(),
        });
    }
    Ok(delta
        .iter()
        .zip(prev)
        .map(|(d, p)| p.wrapping_add(*d))
        .collect())
}

/// A decoded tile frame. `cells` is the RLE-expanded payload: quantized
/// values for a key frame, wrapping deltas when `delta` is set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileFrame {
    pub cycle: u64,
    pub zoom: u8,
    pub tx: u16,
    pub ty: u16,
    pub w: u16,
    pub h: u16,
    /// The product was served from a previous cycle's last-good field.
    pub stale: bool,
    /// `cells` are deltas against the previous cycle's same tile.
    pub delta: bool,
    pub cells: Vec<u8>,
}

/// The fixed fields that a tile's key frame and delta frame share.
#[derive(Clone, Copy, Debug)]
struct TileHead {
    cycle: u64,
    zoom: u8,
    tx: u16,
    ty: u16,
    w: u16,
    h: u16,
    stale: bool,
}

impl TileHead {
    /// One sealed frame around an RLE `payload` of a `w`×`h` tile.
    fn seal(&self, delta: bool, payload: &[u8]) -> Bytes {
        let mut buf = frame::begin(Kind::Tile, VERSION, FIXED_BYTES + payload.len());
        buf.put_u64(self.cycle);
        buf.put_u8(self.zoom);
        buf.put_u16(self.tx);
        buf.put_u16(self.ty);
        buf.put_u16(self.w);
        buf.put_u16(self.h);
        let mut flags = 0u8;
        if self.stale {
            flags |= FLAG_STALE;
        }
        if delta {
            flags |= FLAG_DELTA;
        }
        buf.put_u8(flags);
        buf.put_u32(bda_num::cast::u32_of_index(payload.len()));
        buf.put_slice(payload);
        frame::seal(buf)
    }
}

/// Decode and validate one sealed tile frame. Every malformed input maps
/// to a typed [`TileError`]; no input can panic this path.
pub fn decode_tile(data: &[u8]) -> Result<TileFrame, TileError> {
    let mut buf = frame::open(Kind::Tile, VERSION, data)?;
    if buf.remaining() < FIXED_BYTES {
        return Err(FrameError::TooShort.into());
    }
    let cycle = buf.get_u64();
    let zoom = buf.get_u8();
    let tx = buf.get_u16();
    let ty = buf.get_u16();
    let w = buf.get_u16();
    let h = buf.get_u16();
    let flags = buf.get_u8();
    let declared = bda_num::cast::index_of_u32(buf.get_u32());
    if buf.remaining() != declared {
        return Err(TileError::PayloadLength {
            declared,
            got: buf.remaining(),
        });
    }
    let area = usize::from(w) * usize::from(h);
    if area == 0 {
        return Err(TileError::EmptyTile);
    }
    let cells = rle_decode(buf, area)?;
    Ok(TileFrame {
        cycle,
        zoom,
        tx,
        ty,
        w,
        h,
        stale: flags & FLAG_STALE != 0,
        delta: flags & FLAG_DELTA != 0,
        cells,
    })
}

/// One cycle's encoded product: the delta stream broadcast to live
/// subscribers and the key-frame snapshot cached for late joiners. Frames
/// are ordered (zoom, ty, tx) ascending — the deterministic stream order.
#[derive(Clone, Debug)]
pub struct CycleTiles {
    pub cycle: u64,
    pub deltas: Vec<Bytes>,
    pub keys: Vec<Bytes>,
}

impl CycleTiles {
    pub fn delta_bytes(&self) -> usize {
        self.deltas.iter().map(|b| b.len()).sum()
    }
}

/// Stateful per-stream encoder: quantizes, builds the zoom pyramid, and
/// delta-encodes against the previous cycle.
#[derive(Debug, Default)]
pub struct Tiler {
    cfg: TileConfig,
    prev: Vec<QuantGrid>,
}

impl Tiler {
    pub fn new(cfg: TileConfig) -> Self {
        Self {
            cfg,
            prev: Vec::new(),
        }
    }

    /// Build the zoom pyramid for one field.
    fn pyramid(&self, field: &[f64], w: usize, h: usize) -> Result<Vec<QuantGrid>, TileError> {
        let mut levels = Vec::with_capacity(usize::from(self.cfg.max_zoom) + 1);
        levels.push(QuantGrid::quantize(field, w, h)?);
        for _ in 0..self.cfg.max_zoom {
            let next = levels[levels.len() - 1].coarsen();
            if next.w == levels[levels.len() - 1].w && next.h == levels[levels.len() - 1].h {
                break; // already 1x1: further levels are identical
            }
            levels.push(next);
        }
        Ok(levels)
    }

    /// Encode one cycle's field. Emits delta frames against the previous
    /// cycle where the pyramid shapes match (first cycle and any grid
    /// reshape fall back to key frames for the delta stream too), and
    /// always a full key-frame snapshot. Tile payloads are encoded on the
    /// rayon pool in deterministic order.
    pub fn encode_cycle(
        &mut self,
        cycle: u64,
        field: &[f64],
        w: usize,
        h: usize,
        stale: bool,
    ) -> Result<CycleTiles, TileError> {
        let levels = self.pyramid(field, w, h)?;
        let same_shape = self.prev.len() == levels.len()
            && self
                .prev
                .iter()
                .zip(&levels)
                .all(|(p, l)| p.w == l.w && p.h == l.h);
        let tile = self.cfg.tile.max(1);

        // Flat deterministic tile schedule: (zoom, ty, tx) ascending.
        let mut schedule = Vec::new();
        for (z, level) in levels.iter().enumerate() {
            let tiles_x = level.w.div_ceil(tile).max(1);
            let tiles_y = level.h.div_ceil(tile).max(1);
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    schedule.push((z, tx, ty));
                }
            }
        }

        // Each level's delta against the previous cycle, in one pass; the
        // tiles then read their key and delta cells as rows of the levels
        // and of these planes.
        let delta_planes = if same_shape {
            self.prev
                .iter()
                .zip(&levels)
                .map(|(p, l)| make_delta(&p.q, &l.q))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        let (levels_ref, planes) = (&levels, &delta_planes);
        let encoded: Vec<Result<(Bytes, Bytes), TileError>> = schedule
            .par_iter()
            .map(|&(z, tx, ty)| {
                let level = &levels_ref[z];
                let span = TileSpan::new(tile, tx, ty, level.w, level.h);
                if span.w == 0 || span.h == 0 {
                    return Err(TileError::EmptyTile);
                }
                let head = TileHead {
                    cycle,
                    zoom: bda_num::cast::u8_of_index(z),
                    tx: u16_of_index(tx),
                    ty: u16_of_index(ty),
                    w: u16_of_index(span.w),
                    h: u16_of_index(span.h),
                    stale,
                };
                let key = head.seal(false, &span.rle(&level.q, level.w));
                let delta = match planes.get(z) {
                    Some(plane) => head.seal(true, &span.rle(plane, level.w)),
                    None => key.clone(),
                };
                Ok((delta, key))
            })
            .collect();

        let mut deltas = Vec::with_capacity(encoded.len());
        let mut keys = Vec::with_capacity(encoded.len());
        for r in encoded {
            let (d, k) = r?;
            deltas.push(d);
            keys.push(k);
        }
        self.prev = levels;
        Ok(CycleTiles {
            cycle,
            deltas,
            keys,
        })
    }

    /// Frames per cycle for the current configuration and a `w`×`h` grid
    /// (what a subscriber should expect between sequence gaps).
    pub fn frames_per_cycle(&self, w: usize, h: usize) -> usize {
        let tile = self.cfg.tile.max(1);
        let (mut cw, mut ch) = (w, h);
        let mut n = 0;
        for z in 0..=usize::from(self.cfg.max_zoom) {
            n += cw.div_ceil(tile).max(1) * ch.div_ceil(tile).max(1);
            let (nw, nh) = (cw.div_ceil(2).max(1), ch.div_ceil(2).max(1));
            if z > 0 && nw == cw && nh == ch {
                break;
            }
            (cw, ch) = (nw, nh);
        }
        n
    }
}

/// Client-side reassembler: applies delta frames to the tile state built
/// from key frames, detecting bases that were never established.
#[derive(Debug, Default)]
pub struct TileAssembler {
    tiles: std::collections::BTreeMap<(u8, u16, u16), Vec<u8>>,
    pub last_cycle: Option<u64>,
}

impl TileAssembler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one decoded frame into the assembled state.
    pub fn apply(&mut self, f: &TileFrame) -> Result<(), TileError> {
        let key = (f.zoom, f.tx, f.ty);
        if f.delta {
            let base = self.tiles.get(&key).ok_or(TileError::BaseMismatch {
                base: 0,
                delta: f.cells.len(),
            })?;
            let cur = apply_delta(base, &f.cells)?;
            self.tiles.insert(key, cur);
        } else {
            self.tiles.insert(key, f.cells.clone());
        }
        self.last_cycle = Some(f.cycle);
        Ok(())
    }

    /// Assembled quantized cells for one tile, if established.
    pub fn tile(&self, zoom: u8, tx: u16, ty: u16) -> Option<&[u8]> {
        self.tiles.get(&(zoom, tx, ty)).map(Vec::as_slice)
    }
}

/// Concatenated frame bytes of one cycle's delta stream — the determinism
/// witness compared across thread counts by `tests/par_determinism.rs`.
pub fn stream_digest(tiles: &CycleTiles) -> u64 {
    let mut buf = Vec::with_capacity(tiles.delta_bytes());
    for f in &tiles.deltas {
        buf.extend_from_slice(f);
    }
    bda_num::fnv1a(&buf)
}

/// Deterministic synthetic reflectivity composite: two rain cells orbiting
/// the domain plus an advecting squall band, in dBZ. Used by the example,
/// the bench, and the parity test so they all serve the same storm.
pub fn synthetic_reflectivity(cycle: u64, w: usize, h: usize) -> Vec<f64> {
    use bda_num::cast::{f64_of, f64_of_u64};
    let t = f64_of_u64(cycle) * 0.12;
    let (wf, hf) = (f64_of(w).max(1.0), f64_of(h).max(1.0));
    let mut out = Vec::with_capacity(w * h);
    let cells = [
        (0.5 + 0.3 * (t).cos(), 0.5 + 0.3 * (t).sin(), 0.08, 55.0),
        (
            0.5 + 0.25 * (1.7 * t + 1.0).sin(),
            0.5 - 0.2 * (1.3 * t).cos(),
            0.12,
            42.0,
        ),
    ];
    for y in 0..h {
        for x in 0..w {
            let (ux, uy) = (f64_of(x) / wf, f64_of(y) / hf);
            let mut dbz: f64 = -25.0;
            for &(cx, cy, sigma, peak) in &cells {
                let d2 = (ux - cx).powi(2) + (uy - cy).powi(2);
                dbz = dbz.max(peak * (-d2 / (2.0 * sigma * sigma)).exp() - 25.0 * d2);
            }
            // Squall band sweeping east at constant speed.
            let band = 35.0 * (-((ux - (0.1 + 0.04 * t).fract()).abs() / 0.05).powi(2)).exp();
            dbz = dbz.max(band - 5.0);
            out.push(dbz);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CycleTiles {
        pub fn key_bytes(&self) -> usize {
            self.keys.iter().map(|b| b.len()).sum()
        }
    }

    /// One sealed tile frame from its cells, through the same seal the
    /// tiler uses on the rows of a level. `cells.len()` is `w * h`.
    #[allow(clippy::too_many_arguments)]
    fn encode_tile(
        cycle: u64,
        zoom: u8,
        tx: u16,
        ty: u16,
        w: u16,
        h: u16,
        stale: bool,
        delta: bool,
        cells: &[u8],
    ) -> Result<Bytes, TileError> {
        assert_eq!(cells.len(), usize::from(w) * usize::from(h));
        let head = TileHead {
            cycle,
            zoom,
            tx,
            ty,
            w,
            h,
            stale,
        };
        Ok(head.seal(delta, &rle_encode(cells)))
    }

    /// Palette index back to the center of its dBZ bin.
    fn dequantize(q: u8) -> f64 {
        DBZ_FLOOR + f64::from(q) * DBZ_STEP
    }

    #[test]
    fn quantization_clamps_hostile_values() {
        assert_eq!(quantize_dbz(-30.0), 0);
        assert_eq!(quantize_dbz(-1000.0), 0);
        assert_eq!(quantize_dbz(f64::NAN), 0);
        assert_eq!(quantize_dbz(f64::INFINITY), 255);
        assert_eq!(quantize_dbz(97.5), 255);
        assert_eq!(dequantize(quantize_dbz(10.0)), 10.0);
        assert!((dequantize(quantize_dbz(10.26)) - 10.5).abs() < 1e-12);
    }

    #[test]
    fn rle_roundtrip_and_long_runs() {
        for cells in [
            vec![0u8; 1000],
            vec![1, 1, 2, 2, 2, 3],
            (0..=255u8).collect::<Vec<_>>(),
            vec![7u8; 255],
            vec![7u8; 256],
        ] {
            let rle = rle_encode(&cells);
            assert_eq!(rle_decode(&rle, cells.len()).unwrap(), cells);
        }
        assert!(rle_encode(&[]).is_empty());
        assert_eq!(rle_decode(&[], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rle_rejects_hostile_streams() {
        assert_eq!(rle_decode(&[0, 5], 4).unwrap_err(), TileError::ZeroRun);
        assert_eq!(rle_decode(&[1], 1).unwrap_err(), TileError::DanglingRun);
        assert_eq!(
            rle_decode(&[255, 1], 4).unwrap_err(),
            TileError::CellCount {
                expected: 4,
                got: 255
            }
        );
        assert_eq!(
            rle_decode(&[2, 1], 4).unwrap_err(),
            TileError::CellCount {
                expected: 4,
                got: 2
            }
        );
    }

    #[test]
    fn tile_frame_roundtrip() {
        let cells: Vec<u8> = (0..12 * 9)
            .map(|i| bda_num::cast::u8_of_index(i % 7))
            .collect();
        let frame = encode_tile(42, 1, 3, 2, 12, 9, true, false, &cells).unwrap();
        let f = decode_tile(&frame).unwrap();
        assert_eq!(
            (f.cycle, f.zoom, f.tx, f.ty, f.w, f.h, f.stale, f.delta),
            (42, 1, 3, 2, 12, 9, true, false)
        );
        assert_eq!(f.cells, cells);
    }

    #[test]
    fn envelope_rejections_surface_as_frame() {
        let mut frame = encode_tile(1, 0, 0, 0, 8, 8, false, false, &[3u8; 64])
            .unwrap()
            .to_vec();
        frame[9] ^= 0x04;
        assert_eq!(
            decode_tile(&frame).unwrap_err(),
            TileError::Frame(FrameError::ChecksumMismatch)
        );
    }

    /// A frame pinned byte for byte, and a delta stream's digests: `BDAT`
    /// is what subscribers parse. `V1` is the same tile as the version-1
    /// encoder wrote it: only the version word and the trailer (FNV-1a
    /// then) differ, and the reader refuses it by its version, not by its
    /// checksum.
    #[test]
    fn golden_frame_and_stream_digests_are_byte_identical() {
        let golden = "424441540002000000000000002a01000300020004000303000000080400030502\
                      090300708c2e0c475d247f";
        const V1: &str = "424441540001000000000000002a01000300020004000303000000080400030502\
                          090300b0bd27d89b91039b";
        let cells = [0, 0, 0, 0, 5, 5, 5, 9, 9, 0, 0, 0];
        let frame = encode_tile(42, 1, 3, 2, 4, 3, true, true, &cells).unwrap();
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
        let v1: Vec<u8> = (0..V1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&V1[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            decode_tile(&v1).unwrap_err(),
            TileError::Frame(FrameError::UnsupportedVersion(1))
        );

        let mut tiler = Tiler::new(TileConfig {
            tile: 16,
            max_zoom: 2,
        });
        let expect = [
            (0xe6db_783b_0e14_a8f8, 4378),
            (0xa8ff_9f77_b822_ac68, 3606),
            (0x0963_e168_369b_a3f7, 3252),
        ];
        for (cycle, want) in (0u64..).zip(expect) {
            let field = synthetic_reflectivity(cycle, 48, 40);
            let tiles = tiler
                .encode_cycle(cycle, &field, 48, 40, cycle == 2)
                .unwrap();
            assert_eq!((stream_digest(&tiles), tiles.delta_bytes()), want);
        }
    }

    #[test]
    fn delta_roundtrip_is_exact() {
        let a: Vec<u8> = (0..100)
            .map(|i| bda_num::cast::u8_of_index(i * 3 % 251))
            .collect();
        let b: Vec<u8> = (0..100)
            .map(|i| bda_num::cast::u8_of_index(i * 7 % 253))
            .collect();
        let d = make_delta(&a, &b).unwrap();
        assert_eq!(apply_delta(&a, &d).unwrap(), b);
        assert!(make_delta(&a, &b[..50]).is_err());
        assert!(apply_delta(&a[..50], &d).is_err());
    }

    #[test]
    fn coarsen_max_pools() {
        let g = QuantGrid {
            w: 4,
            h: 2,
            q: vec![1, 9, 2, 2, 3, 4, 0, 8],
        };
        let c = g.coarsen();
        assert_eq!((c.w, c.h), (2, 1));
        assert_eq!(c.q, vec![9, 8]);
        // Odd edge pools the remainder.
        let odd = QuantGrid {
            w: 3,
            h: 1,
            q: vec![5, 1, 7],
        };
        let co = odd.coarsen();
        assert_eq!((co.w, co.h), (2, 1));
        assert_eq!(co.q, vec![5, 7]);
    }

    #[test]
    fn tiler_delta_stream_reassembles_bit_exact() {
        let cfg = TileConfig {
            tile: 16,
            max_zoom: 2,
        };
        let mut tiler = Tiler::new(cfg);
        let mut asm = TileAssembler::new();
        let (w, h) = (48, 40);
        for cycle in 0..5u64 {
            let field = synthetic_reflectivity(cycle, w, h);
            let tiles = tiler.encode_cycle(cycle, &field, w, h, false).unwrap();
            assert_eq!(tiles.deltas.len(), tiles.keys.len());
            assert_eq!(tiles.deltas.len(), tiler.frames_per_cycle(w, h));
            for frame in &tiles.deltas {
                asm.apply(&decode_tile(frame).unwrap()).unwrap();
            }
            // Zoom 0 reassembly equals direct quantization.
            let direct = QuantGrid::quantize(&field, w, h).unwrap();
            let mut reassembled = vec![0u8; w * h];
            for ty in 0..h.div_ceil(16) {
                for tx in 0..w.div_ceil(16) {
                    let cells = asm
                        .tile(0, u16_of_index(tx), u16_of_index(ty))
                        .expect("tile missing");
                    let tw = 16.min(w - tx * 16);
                    for (row, chunk) in cells.chunks(tw).enumerate() {
                        let y = ty * 16 + row;
                        reassembled[y * w + tx * 16..y * w + tx * 16 + tw].copy_from_slice(chunk);
                    }
                }
            }
            assert_eq!(reassembled, direct.q, "cycle {cycle} diverged");
        }
    }

    #[test]
    fn unchanged_field_deltas_collapse() {
        let mut tiler = Tiler::new(TileConfig::default());
        let (w, h) = (64, 64);
        let field = synthetic_reflectivity(3, w, h);
        let first = tiler.encode_cycle(0, &field, w, h, false).unwrap();
        let second = tiler.encode_cycle(1, &field, w, h, true).unwrap();
        assert!(
            second.delta_bytes() * 4 < first.key_bytes(),
            "unchanged-field deltas {} not ≪ key frames {}",
            second.delta_bytes(),
            first.key_bytes()
        );
        let f = decode_tile(&second.deltas[0]).unwrap();
        assert!(f.stale && f.delta);
        assert!(f.cells.iter().all(|&c| c == 0));
    }

    #[test]
    fn grid_reshape_falls_back_to_key_frames() {
        let mut tiler = Tiler::new(TileConfig::default());
        tiler
            .encode_cycle(0, &synthetic_reflectivity(0, 32, 32), 32, 32, false)
            .unwrap();
        let tiles = tiler
            .encode_cycle(1, &synthetic_reflectivity(1, 48, 48), 48, 48, false)
            .unwrap();
        for frame in &tiles.deltas {
            assert!(!decode_tile(frame).unwrap().delta);
        }
    }

    #[test]
    fn delta_without_base_is_typed() {
        let mut asm = TileAssembler::new();
        let d = make_delta(&[1, 2], &[3, 4]).unwrap();
        let frame = encode_tile(1, 0, 0, 0, 2, 1, false, true, &d).unwrap();
        let f = decode_tile(&frame).unwrap();
        assert!(matches!(
            asm.apply(&f).unwrap_err(),
            TileError::BaseMismatch { .. }
        ));
    }

    #[test]
    fn field_shape_mismatch_rejected() {
        assert!(QuantGrid::quantize(&[0.0; 5], 2, 2).is_err());
        let mut tiler = Tiler::new(TileConfig::default());
        assert!(tiler.encode_cycle(0, &[0.0; 5], 2, 2, false).is_err());
    }
}
