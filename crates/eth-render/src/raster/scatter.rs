//! The rasterizers' shared kernel: depth-keyed scatter, resolve.
//!
//! Three front ends: `points`, `splat` and `triangle`. Their primitives
//! are particles or triangles; the kernel only sees indices.
//!
//! [`scatter`] cuts the input indices `0..n` into one contiguous slice per
//! worker. Each worker owns a `width × height` buffer of packed
//! `(depth, input index)` keys and depth-tests every fragment its
//! primitives generate straight into it. [`resolve`] then takes the
//! per-pixel minimum over the worker buffers and calls the rasterizer's
//! shader once per *covered pixel* — never per primitive or per fragment —
//! to fill the [`Framebuffer`].
//!
//! The winner of a pixel is the lexicographic minimum of `(depth, index)`:
//! exactly what an input-order loop with a strict `<` depth test keeps
//! (nearest fragment, ties to the earlier primitive). A minimum does not
//! depend on the order its operands arrive in, so the image is the same at
//! any worker count and any slice boundaries by construction. Scratch is
//! `workers × pixels × 8` bytes; nothing is sized by the primitive count.

use crate::framebuffer::Framebuffer;
use eth_data::Vec3;
use rayon::prelude::*;
use std::ops::Range;

/// Key of a pixel nothing landed on; greater than every fragment's key.
const EMPTY: u64 = u64::MAX;

/// Below this many primitives a slice costs less than spawning its worker.
const MIN_SLICE: usize = 1024;

/// So does a resolve band below this many pixels.
const MIN_BAND: usize = 32 * 1024;

/// One worker's winner buffer, handed to the rasterizer's slice loop.
pub(crate) struct Sink {
    keys: Vec<u64>,
    width: isize,
    height: isize,
    /// Fragments rasterized inside the image (whether or not they won).
    fragments: u64,
}

/// Map a depth to a `u32` that orders like the depth. `+ 0.0` folds `-0.0`
/// into `+0.0` so the two tie, as they do under `<`.
#[inline]
fn depth_key(depth: f32) -> u32 {
    let bits = (depth + 0.0).to_bits();
    if bits & 0x8000_0000 == 0 {
        bits | 0x8000_0000
    } else {
        !bits
    }
}

/// Inverse of [`depth_key`].
#[inline]
fn key_depth(key: u32) -> f32 {
    f32::from_bits(if key & 0x8000_0000 != 0 {
        key & 0x7fff_ffff
    } else {
        !key
    })
}

impl Sink {
    /// Pack `(depth, index)`; `None` for a depth that can never land (the
    /// buffer is cleared to +∞ and the test is a strict `<`, so +∞ and NaN
    /// both lose).
    #[inline]
    fn key(depth: f32, index: usize) -> Option<u64> {
        (depth < f32::INFINITY).then(|| (depth_key(depth) as u64) << 32 | index as u64)
    }

    /// Depth-test the square block of pixels within `half` of `(cx, cy)`,
    /// all at `depth`, for primitive `index`.
    #[inline]
    pub(crate) fn block(&mut self, index: usize, cx: isize, cy: isize, half: isize, depth: f32) {
        let Some(key) = Sink::key(depth, index) else {
            return;
        };
        let x0 = cx.saturating_sub(half).max(0);
        let x1 = cx.saturating_add(half).min(self.width - 1);
        let y0 = cy.saturating_sub(half).max(0);
        let y1 = cy.saturating_add(half).min(self.height - 1);
        if x0 > x1 || y0 > y1 {
            return;
        }
        self.fragments += ((x1 - x0 + 1) * (y1 - y0 + 1)) as u64;
        for y in y0..=y1 {
            let row = (y * self.width) as usize;
            for slot in &mut self.keys[row + x0 as usize..=row + x1 as usize] {
                *slot = (*slot).min(key);
            }
        }
    }

    /// Depth-test one fragment of primitive `index` at pixel `(x, y)`.
    #[inline]
    pub(crate) fn put(&mut self, index: usize, x: isize, y: isize, depth: f32) {
        if x < 0 || y < 0 || x >= self.width || y >= self.height {
            return;
        }
        let Some(key) = Sink::key(depth, index) else {
            return;
        };
        self.fragments += 1;
        let slot = &mut self.keys[(y * self.width + x) as usize];
        *slot = (*slot).min(key);
    }
}

/// One frame's scatter pass: each worker's winner buffer beside what its
/// `rasterize` call returned, in slice order.
pub(crate) struct Scattered<S> {
    width: usize,
    height: usize,
    workers: Vec<(Sink, S)>,
}

impl<S> Scattered<S> {
    /// Fragments rasterized inside the image, summed over workers.
    pub(crate) fn fragments(&self) -> u64 {
        self.workers.iter().map(|(sink, _)| sink.fragments).sum()
    }

    /// What each worker's `rasterize` call returned.
    pub(crate) fn slices(&self) -> impl Iterator<Item = &S> {
        self.workers.iter().map(|(_, out)| out)
    }
}

/// Run `rasterize(indices, sink)` over `0..n` cut into one contiguous
/// slice per rayon worker (so `ThreadPool::install` governs the count).
pub(crate) fn scatter<S, F>(n: usize, width: usize, height: usize, rasterize: F) -> Scattered<S>
where
    S: Send,
    F: Fn(Range<usize>, &mut Sink) -> S + Sync,
{
    assert!(
        n <= u32::MAX as usize,
        "the winner key holds a 32-bit primitive index"
    );
    let slice = n.div_ceil(rayon::current_num_threads()).max(MIN_SLICE);
    let workers = (0..n.div_ceil(slice))
        .into_par_iter()
        .map(|w| {
            let mut sink = Sink {
                keys: vec![EMPTY; width * height],
                width: width as isize,
                height: height as isize,
                fragments: 0,
            };
            let out = rasterize(w * slice..((w + 1) * slice).min(n), &mut sink);
            (sink, out)
        })
        .collect();
    Scattered {
        width,
        height,
        workers,
    }
}

/// Build the frame: every pixel some fragment landed on gets the winning
/// fragment's depth and `shade(index, x, y, depth)` as its colour, where
/// `index` is the winning primitive; the rest stay cleared.
pub(crate) fn resolve<S, F>(scattered: &Scattered<S>, background: Vec3, shade: F) -> Framebuffer
where
    S: Sync,
    F: Fn(usize, usize, usize, f32) -> Vec3 + Sync,
{
    let &Scattered { width, height, .. } = scattered;
    let mut fb = Framebuffer::new(width, height, background);
    let band = (height.div_ceil(rayon::current_num_threads()) * width).max(MIN_BAND);
    let (color, depth) = fb.planes_mut();
    color
        .par_chunks_mut(band)
        .zip(depth.par_chunks_mut(band))
        .enumerate()
        .for_each(|(b, (color, depth))| {
            let first = b * band;
            for i in 0..depth.len() {
                let pixel = first + i;
                let key = scattered
                    .workers
                    .iter()
                    .fold(EMPTY, |key, (sink, _)| key.min(sink.keys[pixel]));
                if key == EMPTY {
                    continue;
                }
                depth[i] = key_depth((key >> 32) as u32);
                color[i] = shade(
                    (key & 0xffff_ffff) as usize,
                    pixel % width,
                    pixel / width,
                    depth[i],
                );
            }
        });
    fb
}

/// Inputs the rasterizers' equivalence tests draw from.
#[cfg(test)]
pub(super) mod testing {
    use crate::camera::Camera;
    use eth_data::field::Attribute;
    use eth_data::{Aabb, PointCloud, Vec3};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Images that are neither square nor multiples of 16. The first
    /// camera looks straight down +y, so a particle's view depth is
    /// exactly `y + 5`: equal `y` is an exact depth tie.
    pub fn cameras() -> [Camera; 3] {
        let up = Vec3::new(0.0, 0.0, 1.0);
        [
            Camera::look_at(Vec3::new(0.0, -5.0, 0.0), Vec3::ZERO, up, 45.0, 50, 37),
            Camera::framing(&Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0)), 23, 70),
            Camera::look_at(Vec3::new(1.0, -3.0, 2.0), Vec3::ZERO, up, 70.0, 129, 65),
        ]
    }

    /// `n` particles with a scalar `"v"`, a share of them hostile: NaN and
    /// infinite coordinates, positions behind the eye and far beside the
    /// frustum (out to where the pixel cast saturates), exact copies of
    /// earlier particles, and a coarse lattice on three `y` planes whose
    /// neighbours overlap on screen at exactly equal depth.
    pub fn hostile_cloud(seed: u64, n: usize, camera: &Camera) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions: Vec<Vec3> = Vec::with_capacity(n);
        for _ in 0..n {
            let inside = Vec3::new(
                rng.random_range(-2.0f32..2.0),
                rng.random_range(-2.0f32..2.0),
                rng.random_range(-2.0f32..2.0),
            );
            let p = match rng.random_range(0u32..16) {
                0 => inside + Vec3::new(f32::NAN, 0.0, 0.0),
                1 => inside + Vec3::new(0.0, 0.0, f32::NEG_INFINITY),
                2 => inside + Vec3::new(0.0, f32::INFINITY, 0.0),
                3 => camera.position - camera.forward() * rng.random_range(0.0f32..4.0),
                4 => inside + camera.right() * 10f32.powi(rng.random_range(1i32..30)),
                5 => inside - camera.up() * 10f32.powi(rng.random_range(1i32..30)),
                6 | 7 if !positions.is_empty() => positions[rng.random_range(0..positions.len())],
                6..=11 => Vec3::new(
                    rng.random_range(-20i32..20) as f32 * 0.05,
                    rng.random_range(-1i32..2) as f32,
                    rng.random_range(-20i32..20) as f32 * 0.05,
                ),
                _ => inside,
            };
            positions.push(p);
        }
        let values = (0..n).map(|_| rng.random_range(0.0f32..1.0)).collect();
        let mut cloud = PointCloud::from_positions(positions);
        cloud
            .set_attribute("v", Attribute::Scalar(values))
            .expect("one value per particle");
        cloud
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_key_orders_like_the_depth_and_inverts() {
        let depths = [
            f32::NEG_INFINITY,
            -3.5,
            -f32::MIN_POSITIVE,
            0.0,
            f32::MIN_POSITIVE,
            1e-6,
            2.0,
            f32::MAX,
        ];
        for pair in depths.windows(2) {
            assert!(depth_key(pair[0]) < depth_key(pair[1]), "{pair:?}");
        }
        for d in depths {
            assert_eq!(key_depth(depth_key(d)).to_bits(), d.to_bits());
        }
        assert_eq!(depth_key(-0.0), depth_key(0.0), "the zeros tie under <");
    }

    #[test]
    fn unlandable_depths_have_no_key_and_real_keys_stay_below_empty() {
        assert_eq!(Sink::key(f32::INFINITY, 0), None);
        assert_eq!(Sink::key(f32::NAN, 0), None);
        assert_eq!(Sink::key(-f32::NAN, 0), None);
        assert!(Sink::key(f32::MAX, u32::MAX as usize).unwrap() < EMPTY);
    }

    #[test]
    fn resolve_bands_hand_the_shader_each_pixels_own_coordinates() {
        // Several bands at 2+ threads (MIN_BAND is not a multiple of the
        // width, so they start mid-row), one below that.
        let (width, height) = (301usize, 257usize);
        assert!(width * height > 2 * MIN_BAND && !MIN_BAND.is_multiple_of(width));
        let frames = crate::testing::at_thread_counts(|| {
            let scattered = scatter(20_000, width, height, |indices, sink| {
                for i in indices {
                    let (x, y) = (i * 7919 % width, i * 104_729 % height);
                    sink.put(i, x as isize, y as isize, (i % 13) as f32);
                }
            });
            resolve(&scattered, Vec3::ZERO, |i, x, y, depth| {
                Vec3::new(i as f32, (y * width + x) as f32, depth)
            })
        });
        let (_, first) = &frames[0];
        assert!(first.fragments_landed() > 10_000);
        let pixels = first.color_buffer().iter().zip(first.depth_buffer());
        for (pixel, (color, depth)) in pixels.enumerate() {
            if depth.is_finite() {
                assert_eq!((color.y, color.z), (pixel as f32, *depth));
                assert_eq!(color.x as usize * 7919 % width, pixel % width);
            }
        }
        for (threads, frame) in &frames {
            assert!(frame == first, "frame differs at {threads} threads");
        }
    }
}
