//! Every per-frame buffer has an owner: after a cold call has sized the
//! run's pools, a warm call requests nothing of [`LARGE`] bytes or more
//! from the allocator but the images it returns. A counting global
//! allocator holds the line; this file contains exactly one test so no
//! concurrent test can allocate while a call is measured.
//!
//! One thing a warm call may still add is timing's, not a frame's: a
//! socket wire's reader runs ahead of its visualization rank, so an
//! internode call can hold one more payload at once than any call before
//! it, and a visualization rank can encode its next composite
//! contribution before the root has let go of its last. The pool in
//! question then leases a fresh buffer and keeps it; the test admits
//! exactly the pools' own count and bytes of those, and holds the payload
//! pool to having parked every buffer it ever made.

use eth_core::config::{Algorithm, Application, Coupling, ExperimentSpec};
use eth_core::harness::{run_native_cached, RunCaches};
use eth_data::Vec3;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// glibc's default mmap threshold: a request this large or larger is what
/// the allocator maps, faults in and parks per thread arena.
const LARGE: usize = 128 << 10;

const EDGE: usize = 256;

/// Whether requests are being recorded.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Sizes of the large requests seen while armed. Recording pushes into a
/// vector reserved up front, so the allocator never calls itself.
static SEEN: Mutex<Vec<usize>> = Mutex::new(Vec::new());

const SEEN_CAP: usize = 4096;

fn note(size: usize) {
    if size >= LARGE && ARMED.load(Ordering::SeqCst) {
        let mut seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
        if seen.len() < seen.capacity() {
            seen.push(size);
        }
    }
}

struct LargeRequests;

unsafe impl GlobalAlloc for LargeRequests {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargeRequests = LargeRequests;

fn spec(application: Application, algorithm: Algorithm, coupling: Coupling) -> ExperimentSpec {
    ExperimentSpec::builder(&format!("warm-{}-{coupling:?}", algorithm.name()))
        .application(application)
        .algorithm(algorithm)
        .coupling(coupling)
        .ranks(2)
        .steps(2)
        .images_per_step(1)
        .image_size(EDGE, EDGE)
        .build()
        .unwrap()
}

#[test]
fn a_warm_call_requests_nothing_large_but_its_images() {
    SEEN.lock().unwrap().reserve_exact(SEEN_CAP);
    let hacc = Application::Hacc { particles: 50_000 };
    let xrage = Application::Xrage { dims: [48; 3] };
    let runs = [
        (hacc.clone(), Algorithm::VtkPoints),
        (hacc.clone(), Algorithm::GaussianSplat),
        (hacc, Algorithm::RaycastSpheres),
        (xrage, Algorithm::VtkIsosurface),
    ];
    let image_bytes = EDGE * EDGE * std::mem::size_of::<Vec3>();
    let mut failures = Vec::new();
    for (application, algorithm) in runs {
        for coupling in [Coupling::Tight, Coupling::Intercore, Coupling::Internode] {
            let spec = spec(application.clone(), algorithm, coupling);
            let caches = RunCaches::new();
            // the cold call sizes the pools; the warm one before the
            // measured one makes it a pair of warm calls
            for _ in 0..2 {
                run_native_cached(&spec, &caches).unwrap();
            }
            let (before, sets_before) = (caches.payload_stats(), caches.scratch_stats());
            ARMED.store(true, Ordering::SeqCst);
            let out = run_native_cached(&spec, &caches);
            ARMED.store(false, Ordering::SeqCst);
            let images = out.unwrap().images.len();
            let seen = std::mem::take(&mut *SEEN.lock().unwrap());
            SEEN.lock().unwrap().reserve_exact(SEEN_CAP);
            let (pool, sets) = (caches.payload_stats(), caches.scratch_stats());
            let grown = (pool.fresh - before.fresh + sets.contribution_buffers
                - sets_before.contribution_buffers) as usize;
            let grown_bytes = pool.fresh_bytes - before.fresh_bytes + sets.contribution_bytes
                - sets_before.contribution_bytes;
            let (image_requests, others): (Vec<usize>, Vec<usize>) =
                seen.iter().copied().partition(|&size| size == image_bytes);
            let others_bytes: u64 = others.iter().map(|&size| size as u64).sum();
            let kept = pool.parked as u64 == pool.fresh;
            // one set per visualization rank, made by the cold call
            if image_requests.len() != images
                || (others.len(), others_bytes) != (grown, grown_bytes)
                || !kept
                || (sets.fresh, sets.parked) != (2, 2)
            {
                failures.push(format!(
                    "{} {coupling:?}: {images} images of {image_bytes} B, {grown} fresh pooled \
                     buffers of {grown_bytes} B, payloads {pool:?}, sets {sets:?}; large \
                     requests: {seen:?}",
                    algorithm.name(),
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
