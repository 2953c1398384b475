//! Framebuffer tiling: the rayon work unit of the raycasters.
//!
//! The raycasters used to parallelize over rows, which are too fine for
//! packet traversal to find coherent rays. (The particle rasterizers
//! parallelize over the *input* instead — see `raster/scatter.rs`.)
//!
//! A [`TileRect`] is a small screen-space rectangle ([`TILE`] pixels on a
//! side — big enough to amortize scheduling, small enough to load-balance
//! an uneven image). [`trace_in_place`] cuts the framebuffer's planes into
//! bands of tile rows — disjoint `&mut` slices, one rayon item each — and
//! a band's tiles store their pixels straight into it. Every tile owns a
//! disjoint pixel range, so the result is identical for any thread count
//! or completion order.

use crate::framebuffer::Framebuffer;
use eth_data::Vec3;
use rayon::prelude::*;

/// Tile edge in pixels.
pub const TILE: usize = 16;

/// A screen-space tile: `w × h` pixels at `(x0, y0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRect {
    pub x0: usize,
    pub y0: usize,
    pub w: usize,
    pub h: usize,
}

/// One band of whole image rows, as the tiles inside it write it.
pub(crate) struct Band<'a> {
    color: &'a mut [Vec3],
    depth: &'a mut [f32],
    width: usize,
    /// Image row of the band's first row.
    y0: usize,
}

impl Band<'_> {
    /// Replace pixel `(x, y)` (image coordinates, inside this band).
    #[inline]
    pub(crate) fn store(&mut self, x: usize, y: usize, depth: f32, color: Vec3) {
        let i = (y - self.y0) * self.width + x;
        self.depth[i] = depth;
        self.color[i] = color;
    }
}

/// Run `trace(tile, band)` for every tile of `fb` (see [`tiles`]) on the
/// rayon workers; `trace` stores its tile's pixels into `band`, the rows
/// that hold it. Returns what each call returned, in row-major tile order.
pub(crate) fn trace_in_place<S, F>(fb: &mut Framebuffer, trace: F) -> Vec<S>
where
    S: Send,
    F: Fn(TileRect, &mut Band<'_>) -> S + Sync,
{
    let (width, height) = (fb.width(), fb.height());
    let (color, depth) = fb.planes_mut();
    let band_pixels = (TILE * width).max(1);
    let bands: Vec<Vec<S>> = color
        .par_chunks_mut(band_pixels)
        .zip(depth.par_chunks_mut(band_pixels))
        .enumerate()
        .map(|(b, (color, depth))| {
            let y0 = b * TILE;
            let h = TILE.min(height - y0);
            let mut band = Band {
                color,
                depth,
                width,
                y0,
            };
            (0..width)
                .step_by(TILE)
                .map(|x0| {
                    let w = TILE.min(width - x0);
                    trace(TileRect { x0, y0, w, h }, &mut band)
                })
                .collect()
        })
        .collect();
    bands.into_iter().flatten().collect()
}

/// Cut a `width × height` image into row-major tiles of at most
/// [`TILE`] × [`TILE`] pixels (edge tiles are clipped).
pub fn tiles(width: usize, height: usize) -> Vec<TileRect> {
    let mut out = Vec::with_capacity(width.div_ceil(TILE) * height.div_ceil(TILE));
    let mut y0 = 0;
    while y0 < height {
        let h = TILE.min(height - y0);
        let mut x0 = 0;
        while x0 < width {
            let w = TILE.min(width - x0);
            out.push(TileRect { x0, y0, w, h });
            x0 += TILE;
        }
        y0 += TILE;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_image_exactly_once() {
        for (w, h) in [(64, 64), (100, 70), (33, 9), (5, 5)] {
            let ts = tiles(w, h);
            let mut covered = vec![0u8; w * h];
            for tr in &ts {
                assert!(tr.w >= 1 && tr.h >= 1);
                for y in tr.y0..tr.y0 + tr.h {
                    for x in tr.x0..tr.x0 + tr.w {
                        covered[y * w + x] += 1;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{w}x{h}");
        }
    }

    #[test]
    fn in_place_tiles_are_the_tile_list_and_write_each_pixel_once() {
        for (w, h) in [(97, 61), (150, 90), (33, 9), (5, 5), (512, 3)] {
            for (threads, (fb, visited)) in crate::testing::at_thread_counts(|| {
                let mut fb = Framebuffer::new(w, h, Vec3::ZERO);
                let visited = trace_in_place(&mut fb, |tile, band| {
                    for y in tile.y0..tile.y0 + tile.h {
                        for x in tile.x0..tile.x0 + tile.w {
                            band.store(x, y, (y * w + x) as f32, Vec3::splat(x as f32));
                        }
                    }
                    tile
                });
                (fb, visited)
            }) {
                assert_eq!(visited, tiles(w, h), "{w}x{h}, {threads} threads");
                for (i, (&d, c)) in fb.depth_buffer().iter().zip(fb.color_buffer()).enumerate() {
                    assert_eq!((d, c.x), (i as f32, (i % w) as f32), "pixel {i}");
                }
            }
        }
    }

    #[test]
    fn empty_image_has_no_tiles() {
        assert!(tiles(0, 0).is_empty());
        assert!(tiles(16, 0).is_empty());
    }
}
