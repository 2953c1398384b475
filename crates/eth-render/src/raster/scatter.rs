//! The rasterizers' shared kernel: depth-keyed scatter, resolve.
//!
//! Three front ends: `points`, `splat` and `triangle`. Their primitives
//! are particles or triangles; the kernel only sees indices.
//!
//! [`scatter`] cuts the input indices `0..n` into one contiguous slice per
//! worker. Each worker owns a buffer of packed `(depth, input index)`
//! keys and depth-tests every fragment its primitives generate straight
//! into it. [`resolve`] then takes the per-pixel minimum over the worker
//! buffers and calls the rasterizer's shader once per *covered pixel* —
//! never per primitive or per fragment — to fill the [`Framebuffer`].
//!
//! The winner of a pixel is the lexicographic minimum of `(depth, index)`:
//! exactly what an input-order loop with a strict `<` depth test keeps
//! (nearest fragment, ties to the earlier primitive). A minimum does not
//! depend on the order its operands arrive in, so the image is the same at
//! any worker count and any slice boundaries by construction.
//!
//! A front end whose primitives are squares of one half-edge `h` (the
//! points renderer's blocks) stores one key per primitive, at its centre,
//! and the kernel spreads the keys over the squares as a separable
//! minimum: a `2h + 1`-tap minimum along every row at the end of each
//! worker's scatter, then the same down every column inside resolve's
//! per-pixel minimum. A minimum over a square is the minimum over its
//! rows' minima, so every pixel keeps the key the per-pixel loop would
//! have left there. The buffer carries a halo of `h` pixels on each side
//! for the centres of squares that overhang the image. The key planes are
//! `workers × (W + 2h) × (H + 2h) × 8` bytes of the rank's
//! [`Scratch`](crate::scratch::Scratch), kept between frames; nothing is
//! sized by the primitive count. Splats and triangles are the `h = 0` case.

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
    /// `(width + 2 * halo) × (height + 2 * halo)` keys, the image at
    /// offset `(halo, halo)`.
    keys: Vec<u64>,
    width: isize,
    height: isize,
    /// Half-edge of the squares [`Sink::centre`] stores.
    halo: isize,
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

    /// The slot of pixel `(x, y)`, which may lie up to `halo` outside
    /// the image.
    #[inline]
    fn slot(&mut self, x: isize, y: isize) -> &mut u64 {
        let stride = self.width + 2 * self.halo;
        &mut self.keys[((y + self.halo) * stride + x + self.halo) as usize]
    }

    /// Depth-test primitive `index`'s square of pixels within `halo` of
    /// `(cx, cy)`, all at `depth`: one key, stored at the centre, which
    /// the row pass and [`resolve`] spread over the square.
    #[inline]
    pub(crate) fn centre(&mut self, index: usize, cx: isize, cy: isize, depth: f32) {
        let Some(key) = Sink::key(depth, index) else {
            return;
        };
        let half = self.halo;
        let x0 = cx.saturating_sub(half).max(0);
        let x1 = cx.saturating_add(half).min(self.width - 1);
        let y0 = cy.saturating_sub(half).max(0);
        let y1 = cy.saturating_add(half).min(self.height - 1);
        if x0 > x1 || y0 > y1 {
            return;
        }
        // the square reaches the image, so its centre lies in the halo
        self.fragments += ((x1 - x0 + 1) * (y1 - y0 + 1)) as u64;
        let slot = self.slot(cx, cy);
        *slot = (*slot).min(key);
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
        let slot = self.slot(x, y);
        *slot = (*slot).min(key);
    }

    /// The row half of the square minimum: slot `x < width` of every row
    /// becomes the minimum of the `2 * halo + 1` slots from `x` on, which
    /// are the centres within `halo` of image column `x`. In place, left
    /// to right: slot `x` is read last by its own output.
    fn spread_rows(&mut self) {
        let (width, halo) = (self.width as usize, self.halo as usize);
        for row in self.keys.chunks_exact_mut(width + 2 * halo) {
            for x in 0..width {
                row[x] = row[x..=x + 2 * halo].iter().fold(EMPTY, |m, &k| m.min(k));
            }
        }
    }
}

/// One frame's scatter pass: each worker's winner buffer beside what its
/// `rasterize` call returned, in slice order.
pub(crate) struct Scattered<S> {
    width: usize,
    height: usize,
    halo: usize,
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

    /// Hand the workers' key planes back to the set they came from.
    pub(crate) fn park(self, planes: &mut Vec<Vec<u64>>) {
        planes.extend(self.workers.into_iter().map(|(sink, _)| sink.keys));
    }
}

/// Run `rasterize(indices, sink)` over `0..n` cut into one contiguous
/// slice per rayon worker (so `ThreadPool::install` governs the count).
/// `halo` is the half-edge of the squares the front end stores with
/// [`Sink::centre`]; 0 for one that only calls [`Sink::put`]. The workers'
/// key planes are taken from `planes`; [`Scattered::park`] puts them back.
pub(crate) fn scatter<S, F>(
    n: usize,
    width: usize,
    height: usize,
    halo: usize,
    planes: &mut Vec<Vec<u64>>,
    rasterize: F,
) -> Scattered<S>
where
    S: Send,
    F: Fn(Range<usize>, &mut Sink) -> S + Sync,
{
    assert!(
        n <= u32::MAX as usize,
        "the winner key holds a 32-bit primitive index"
    );
    let slice = n.div_ceil(rayon::current_num_threads()).max(MIN_SLICE);
    let count = n.div_ceil(slice);
    if planes.len() < count {
        planes.resize_with(count, Vec::new);
    }
    let workers = planes
        .drain(..count)
        .collect::<Vec<_>>()
        .into_par_iter()
        .enumerate()
        .map(|(w, mut keys)| {
            keys.clear();
            keys.resize((width + 2 * halo) * (height + 2 * halo), EMPTY);
            let mut sink = Sink {
                keys,
                width: width as isize,
                height: height as isize,
                halo: halo as isize,
                fragments: 0,
            };
            let out = rasterize(w * slice..((w + 1) * slice).min(n), &mut sink);
            if halo > 0 {
                sink.spread_rows();
            }
            (sink, out)
        })
        .collect();
    Scattered {
        width,
        height,
        halo,
        workers,
    }
}

/// Build the frame in `fb`, a cleared buffer of the scatter's size: every
/// pixel some fragment landed on gets the winning fragment's depth and
/// `shade(index, x, y, depth)` as its colour, where `index` is the winning
/// primitive; the rest stay cleared. The minimum runs over the workers
/// and, with a halo, down the `2 * halo + 1` row minima each pixel's
/// square spans: the column half of the square minimum, read-only, so the
/// bands stay independent.
pub(crate) fn resolve<S, F>(scattered: &Scattered<S>, mut fb: Framebuffer, shade: F) -> Framebuffer
where
    S: Sync,
    F: Fn(usize, usize, usize, f32) -> Vec3 + Sync,
{
    let &Scattered {
        width,
        height,
        halo,
        ..
    } = scattered;
    let stride = width + 2 * halo;
    let taps = 2 * halo + 1;
    debug_assert!(fb.width() == width && fb.height() == height);
    let band = (height.div_ceil(rayon::current_num_threads()) * width).max(MIN_BAND);
    let (color, depth) = fb.planes_mut();
    color
        .par_chunks_mut(band)
        .zip(depth.par_chunks_mut(band))
        .enumerate()
        .for_each(|(b, (color, depth))| {
            let first = b * band;
            let (mut x, mut y) = (first % width, first / width);
            for i in 0..depth.len() {
                // the top row of the pixel's square in every worker buffer
                let top = y * stride + x;
                let key = if halo == 0 {
                    scattered
                        .workers
                        .iter()
                        .fold(EMPTY, |key, (sink, _)| key.min(sink.keys[top]))
                } else {
                    scattered.workers.iter().fold(EMPTY, |key, (sink, _)| {
                        sink.keys[top..]
                            .iter()
                            .step_by(stride)
                            .take(taps)
                            .fold(key, |key, &k| key.min(k))
                    })
                };
                if key != EMPTY {
                    depth[i] = key_depth((key >> 32) as u32);
                    color[i] = shade((key & 0xffff_ffff) as usize, x, y, depth[i]);
                }
                x += 1;
                if x == width {
                    (x, y) = (0, y + 1);
                }
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
            let mut planes = Vec::new();
            let scattered = scatter(20_000, width, height, 0, &mut planes, |indices, sink| {
                for i in indices {
                    let (x, y) = (i * 7919 % width, i * 104_729 % height);
                    sink.put(i, x as isize, y as isize, (i % 13) as f32);
                }
            });
            let fb = Framebuffer::new(width, height, Vec3::ZERO);
            resolve(&scattered, fb, |i, x, y, depth| {
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
