//! Framebuffer tiling: the rayon work unit of the raycasters.
//!
//! The raycasters used to parallelize over rows, which are too fine for
//! packet traversal to find coherent rays. (The particle rasterizers
//! parallelize over the *input* instead — see `raster/scatter.rs`.)
//!
//! A [`TileRect`] is a small screen-space rectangle (16×16 by default —
//! big enough to amortize scheduling, small enough to load-balance an
//! uneven image). Workers produce a compact per-tile pixel vector and the
//! caller blits tiles into the framebuffer serially; since every tile owns
//! a disjoint pixel range, the result is identical for any thread count
//! or tile completion order.

/// Default tile edge in pixels.
pub const DEFAULT_TILE: usize = 16;

/// Tile sizes outside this range either thrash the scheduler (tiny) or
/// starve it (huge). Shared by the spec validator in `eth-core`.
pub const MIN_TILE: usize = 4;
pub const MAX_TILE: usize = 256;

/// A screen-space tile: `w × h` pixels at `(x0, y0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRect {
    pub x0: usize,
    pub y0: usize,
    pub w: usize,
    pub h: usize,
}

impl TileRect {
    /// Number of pixels in the tile.
    pub fn pixels(&self) -> usize {
        self.w * self.h
    }

    /// Row-major `(x, y)` coordinates of every pixel in the tile — the
    /// order tile pixel vectors are laid out in (and that
    /// `Framebuffer::blit` expects).
    pub fn pixels_iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.y0..self.y0 + self.h)
            .flat_map(move |y| (self.x0..self.x0 + self.w).map(move |x| (x, y)))
    }
}

/// Cut a `width × height` image into row-major tiles of at most
/// `tile × tile` pixels (edge tiles are clipped). `tile` is clamped into
/// `[MIN_TILE, MAX_TILE]`.
pub fn tiles(width: usize, height: usize, tile: usize) -> Vec<TileRect> {
    let tile = tile.clamp(MIN_TILE, MAX_TILE);
    let mut out = Vec::with_capacity(width.div_ceil(tile) * height.div_ceil(tile));
    let mut y0 = 0;
    while y0 < height {
        let h = tile.min(height - y0);
        let mut x0 = 0;
        while x0 < width {
            let w = tile.min(width - x0);
            out.push(TileRect { x0, y0, w, h });
            x0 += tile;
        }
        y0 += tile;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_image_exactly_once() {
        for (w, h, t) in [(64, 64, 16), (100, 70, 16), (33, 9, 8), (5, 5, 16)] {
            let ts = tiles(w, h, t);
            let mut covered = vec![0u8; w * h];
            for tr in &ts {
                assert!(tr.w >= 1 && tr.h >= 1);
                for y in tr.y0..tr.y0 + tr.h {
                    for x in tr.x0..tr.x0 + tr.w {
                        covered[y * w + x] += 1;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{w}x{h} tile {t}");
        }
    }

    #[test]
    fn tile_size_is_clamped() {
        let ts = tiles(64, 64, 0);
        assert!(ts.iter().all(|t| t.w <= MIN_TILE && t.h <= MIN_TILE));
        let ts = tiles(4096, 16, 100_000);
        assert!(ts.iter().all(|t| t.w <= MAX_TILE));
    }

    #[test]
    fn empty_image_has_no_tiles() {
        assert!(tiles(0, 0, 16).is_empty());
        assert!(tiles(16, 0, 16).is_empty());
    }
}
