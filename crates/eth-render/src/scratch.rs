//! Who owns a frame's buffers.
//!
//! Every array a frame sizes by its block or its image — the rasterizers'
//! key planes and framebuffers, the projected mesh vertices, the
//! extraction's sign bits, edge cache and mesh, the HLBVH build's arrays
//! and the tree itself, the composite root's depth plane and the encoded
//! contributions — lives in one [`Scratch`] set. A run leases one set per
//! visualization rank when it starts ([`ScratchPool::lease`]), and each
//! rank hands its set down by `&mut` to every kernel it runs; each kernel clears and resizes the
//! arrays it needs, so a set grows to the largest block it has seen and a
//! warm frame asks the allocator for nothing large. The one exception is
//! what a run returns: the composite root's colour plane becomes the
//! frame's [`Image`] and leaves the set with it. Its owner is whoever
//! receives the image, so the run's caller can allocate the planes up
//! front ([`Scratch::provide_image_planes`]), on the thread that will
//! also free them.
//!
//! Buffers a kernel hands out rather than keeps — a framebuffer, a mesh, a
//! sphere tree — come back through [`Scratch::recycle`],
//! [`Scratch::recycle_mesh`] and [`Scratch::recycle_tree`]; one that never
//! comes back is simply freed, and the next lease allocates again.
//!
//! The pool follows [`eth_data::io::pool::PayloadPool`]: it is handed
//! down, not global; a lease goes home when it drops; nothing is settable.
//! It is a stack: a lease takes the sets parked last, at most
//! [`SETS_PARKED`] sets are parked, and a set returning to a full pool is
//! freed.

use crate::framebuffer::Framebuffer;
use crate::geometry::mesh::TriangleMesh;
use crate::image::Image;
use crate::ray::bvh::{BvhScratch, SphereBvh};
use eth_data::io::pool::PayloadPool;
use eth_data::Vec3;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// One rank's reusable buffers; see the module docs. Kernels take it by
/// `&mut`; a test or a bench passes a fresh one ([`Scratch::new`]).
#[derive(Default)]
pub struct Scratch {
    /// Framebuffers handed back, reset on the next [`Scratch::framebuffer`].
    frames: Vec<Framebuffer>,
    /// The composite root's depth plane; its colour plane is the image.
    composite_depth: Vec<f32>,
    /// Colour planes for the images still to come, provided by the run.
    image_planes: Vec<Vec<Vec3>>,
    /// The scatter kernel's key planes, one per worker.
    pub(crate) key_planes: Vec<Vec<u64>>,
    /// The triangle rasterizer's projected vertices.
    pub(crate) projected: Vec<Option<Vec3>>,
    /// The extraction's sign bits, one per vertex.
    pub(crate) signs: Vec<u64>,
    /// The extraction's edge cache.
    pub(crate) edges: Vec<u64>,
    /// The extracted mesh's arrays while no mesh holds them.
    mesh: TriangleMesh,
    /// The HLBVH build's arrays, and the tree's own while no tree holds them.
    pub(crate) bvh: BvhScratch,
    /// Where this rank's composite contributions are encoded; each goes
    /// home when the root lets go of it.
    contributions: PayloadPool,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// A `width × height` framebuffer cleared to `background`, in the planes
    /// of one handed back earlier when there is one.
    pub fn framebuffer(&mut self, width: usize, height: usize, background: Vec3) -> Framebuffer {
        match self.frames.pop() {
            Some(mut fb) => {
                fb.reset(width, height, background);
                fb
            }
            None => Framebuffer::new(width, height, background),
        }
    }

    /// Take back a framebuffer its holder is done with.
    pub fn recycle(&mut self, fb: Framebuffer) {
        self.frames.push(fb);
    }

    /// Colour planes for the next images this set composites, used from
    /// the end; replaces any left over.
    pub fn provide_image_planes(&mut self, planes: Vec<Vec<Vec3>>) {
        self.image_planes = planes;
    }

    /// The composite's target, both planes empty: a colour plane that
    /// becomes the image (a provided one, else a fresh allocation) over
    /// this set's depth plane.
    pub(crate) fn composite_planes(&mut self, pixels: usize) -> (Vec<Vec3>, Vec<f32>) {
        let mut color = self.image_planes.pop().unwrap_or_default();
        color.clear();
        color.reserve_exact(pixels);
        let mut depth = std::mem::take(&mut self.composite_depth);
        depth.clear();
        depth.reserve(pixels);
        (color, depth)
    }

    /// The image of a composited frame; the depth plane stays in the set
    /// for the next composite.
    pub fn into_image(&mut self, fb: Framebuffer) -> Image {
        let (image, depth) = fb.into_image_and_depth();
        self.composite_depth = depth;
        image
    }

    /// An empty mesh over the arrays of one handed back earlier.
    pub(crate) fn mesh(&mut self) -> TriangleMesh {
        let mut mesh = std::mem::take(&mut self.mesh);
        mesh.clear();
        mesh
    }

    /// Take back a mesh its holder is done with.
    pub fn recycle_mesh(&mut self, mesh: TriangleMesh) {
        self.mesh = mesh;
    }

    /// Take back a sphere tree its holder is done with.
    pub fn recycle_tree(&mut self, bvh: SphereBvh) {
        bvh.park(&mut self.bvh);
    }

    /// The pool this rank's composite contributions are leased from.
    pub fn contributions(&self) -> &PayloadPool {
        &self.contributions
    }
}

/// Make `v` `n` elements long without clearing what an earlier frame left
/// in it, for an array whose every slot the kernel writes before it reads
/// it: only growth allocates or writes.
pub(crate) fn overwritten<T: Clone + Default>(v: &mut Vec<T>, n: usize) -> &mut [T] {
    if v.len() < n {
        v.resize(n, T::default());
    }
    &mut v[..n]
}

/// Most sets parked: the most leases out at once ([`ScratchStats::peak_out`])
/// in every benchmark workload, in a 12-point campaign and in `eth serve`
/// with one and with three tenants, measured on two cores — the two
/// visualization ranks of a `ranks = 2` run. A wider run's further sets
/// are freed as they come back.
pub const SETS_PARKED: usize = 2;

/// Counts since the pool was made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Sets handed out.
    pub leased: u64,
    /// Of those, the ones no parked set could serve.
    pub fresh: u64,
    /// Most leases out at once.
    pub peak_out: usize,
    /// Sets parked right now.
    pub parked: usize,
    /// Buffers the parked sets' contribution pools have allocated
    /// ([`eth_data::io::pool::PoolStats::fresh`]).
    pub contribution_buffers: u64,
    /// Their bytes ([`eth_data::io::pool::PoolStats::fresh_bytes`]).
    pub contribution_bytes: u64,
}

#[derive(Default)]
struct Shelf {
    parked: Vec<Scratch>,
    out: usize,
    stats: ScratchStats,
}

fn lock(shelf: &Mutex<Shelf>) -> std::sync::MutexGuard<'_, Shelf> {
    // every statement that holds the lock leaves the shelf valid
    shelf.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A recycler for [`Scratch`] sets; see the module docs. Clones are
/// handles to one pool.
#[derive(Clone, Default)]
pub struct ScratchPool {
    shelf: Arc<Mutex<Shelf>>,
}

impl ScratchPool {
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// `n` sets: the last `n` parked, in the order they were parked, then
    /// fresh ones. Sets park in the order they drop, so a vector of leases
    /// dropped whole (front to back) parks them as they came, and the next
    /// lease of as many sets hands each position the set it had.
    pub fn lease(&self, n: usize) -> Vec<ScratchLease> {
        let parked = {
            let mut shelf = lock(&self.shelf);
            shelf.out += n;
            shelf.stats.leased += n as u64;
            shelf.stats.peak_out = shelf.stats.peak_out.max(shelf.out);
            let from = shelf.parked.len().saturating_sub(n);
            let parked = shelf.parked.split_off(from);
            shelf.stats.fresh += (n - parked.len()) as u64;
            parked
        };
        let fresh = std::iter::repeat_with(Scratch::default).take(n - parked.len());
        parked
            .into_iter()
            .chain(fresh)
            .map(|set| ScratchLease {
                set,
                home: Arc::downgrade(&self.shelf),
            })
            .collect()
    }

    pub fn stats(&self) -> ScratchStats {
        let shelf = lock(&self.shelf);
        let pools = shelf.parked.iter().map(|set| set.contributions.stats());
        let (buffers, bytes) = pools.fold((0, 0), |(n, b), p| (n + p.fresh, b + p.fresh_bytes));
        ScratchStats {
            parked: shelf.parked.len(),
            contribution_buffers: buffers,
            contribution_bytes: bytes,
            ..shelf.stats
        }
    }
}

/// A [`Scratch`] set on loan from a [`ScratchPool`]; dropping it is the
/// return. It parks if the pool has room, else it is freed.
pub struct ScratchLease {
    set: Scratch,
    home: Weak<Mutex<Shelf>>,
}

impl Deref for ScratchLease {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        &self.set
    }
}

impl DerefMut for ScratchLease {
    fn deref_mut(&mut self) -> &mut Scratch {
        &mut self.set
    }
}

impl Drop for ScratchLease {
    fn drop(&mut self) {
        let Some(home) = self.home.upgrade() else {
            return;
        };
        let set = std::mem::take(&mut self.set);
        let unparked = {
            let mut shelf = lock(&home);
            shelf.out = shelf.out.saturating_sub(1);
            if shelf.parked.len() < SETS_PARKED {
                shelf.parked.push(set);
                None
            } else {
                Some(set)
            }
        };
        // freed outside the lock
        drop(unparked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_come_back_to_the_positions_that_had_them() {
        let pool = ScratchPool::new();
        let mut sets = pool.lease(2);
        let planes: Vec<_> = sets
            .iter_mut()
            .enumerate()
            .map(|(i, set)| {
                let fb = set.framebuffer(8, 4 + i, Vec3::ONE);
                let planes = fb.color_buffer().as_ptr();
                set.recycle(fb);
                planes
            })
            .collect();
        drop(sets);
        // each position draws its own set, planes cleared anew
        let mut again = pool.lease(2);
        for (i, set) in again.iter_mut().enumerate() {
            let fb = set.framebuffer(4, 8, Vec3::ZERO);
            assert_eq!(fb.color_buffer().as_ptr(), planes[i]);
            assert_eq!(fb, Framebuffer::new(4, 8, Vec3::ZERO));
        }
        drop(again);
        let stats = pool.stats();
        assert_eq!(
            (stats.leased, stats.fresh, stats.peak_out, stats.parked),
            (4, 2, 2, 2)
        );
    }

    #[test]
    fn sets_past_the_cap_are_freed() {
        let pool = ScratchPool::new();
        let wide = SETS_PARKED + 2;
        let mut first = pool.lease(wide);
        for set in &mut first {
            let fb = set.framebuffer(2, 2, Vec3::ONE);
            set.recycle(fb);
        }
        drop(first);
        let stats = pool.stats();
        assert_eq!(
            (stats.fresh, stats.peak_out, stats.parked),
            (wide as u64, wide, SETS_PARKED)
        );
        // the front positions' sets were kept and come back to them
        let again = pool.lease(wide);
        let framed: Vec<bool> = again.iter().map(|set| !set.frames.is_empty()).collect();
        assert_eq!(framed, [vec![true; SETS_PARKED], vec![false; 2]].concat());
        drop(again);
        // a lease outliving its pool is simply freed
        let orphan = pool.lease(1);
        drop(pool);
        drop(orphan);
    }

    #[test]
    fn the_composite_depth_plane_stays_and_the_colour_leaves_as_the_image() {
        let mut scratch = Scratch::new();
        let (mut color, mut depth) = scratch.composite_planes(6);
        color.resize(6, Vec3::ONE);
        depth.resize(6, 1.0);
        let depth_at = depth.as_ptr();
        let fb = Framebuffer::from_planes(3, 2, Vec3::ZERO, color, depth);
        let image = scratch.into_image(fb);
        assert_eq!((image.width(), image.height()), (3, 2));
        let (_, depth) = scratch.composite_planes(6);
        assert_eq!(depth.as_ptr(), depth_at);
    }
}
