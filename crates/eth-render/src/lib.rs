//! # eth-render — rendering substrates for the Exploration Test Harness
//!
//! The paper's third design axis is the choice of rendering pipeline
//! (Section IV-C): a **geometry-based** pipeline that extracts intermediate
//! geometry and rasterizes it (the VTK/OpenGL role), and a **raycasting**
//! pipeline that operates directly on the data (the OSPRay role). This crate
//! implements both, in software, with the same asymptotic behaviour the
//! paper's evaluation leans on:
//!
//! | Paper algorithm | Module | Cost shape |
//! |---|---|---|
//! | VTK points | [`raster::points`] | O(N) points |
//! | Gaussian splatter | [`raster::splat`] | O(N) points, cheaper per point |
//! | Raycast spheres | [`ray::sphere`] over [`ray::bvh`] | O(N log N) build + O(rays · log N) |
//! | VTK isosurface (marching cubes + raster) | [`geometry::marching_cubes`] + [`raster::triangle`] | O(cells) + O(tris) |
//! | Raycast isosurface (ray marching) | [`ray::raymarch`] | O(rays · N^(1/3)) |
//! | VTK slice (plane extraction + raster) | [`geometry::slice`] | O(cells^(2/3)) |
//! | Raycast slice | [`ray::plane`] | O(rays) |
//!
//! All renderers are thread-parallel with rayon (the TBB role in the paper's
//! software stack) and return [`pipeline::RenderStats`] — operation counts
//! that calibrate the cluster-scale cost model in `eth-cluster`.

pub mod camera;
pub mod color;
pub mod composite;
pub mod framebuffer;
pub mod geometry;
pub mod image;
pub mod pipeline;
pub mod raster;
pub mod ray;
pub mod shading;
pub mod tile;

pub use camera::Camera;
pub use framebuffer::Framebuffer;
pub use image::Image;
pub use pipeline::{RenderAlgorithm, RenderStats};

#[cfg(test)]
pub(crate) mod testing {
    /// `v`'s bits, with every NaN as one value: which NaN an operation
    /// returns depends on the operand order the compiler picked, so two
    /// compilations of one expression may differ there and nowhere else.
    pub fn bits_nan_as_one(v: f32) -> u32 {
        if v.is_nan() {
            u32::MAX
        } else {
            v.to_bits()
        }
    }

    /// `run()` under rayon pools of 1, 2, 3 and 8 threads.
    pub fn at_thread_counts<T>(run: impl Fn() -> T) -> Vec<(usize, T)> {
        [1, 2, 3, 8]
            .into_iter()
            .map(|threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("the pool builder cannot fail");
                (threads, pool.install(&run))
            })
            .collect()
    }
}
