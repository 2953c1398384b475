//! Render hot-path benchmark: HLBVH build times and tiled frame times.
//!
//! This is the measurement behind `reproduce render-bench`, which emits
//! `BENCH_render.json`:
//!
//! * a build-time curve — the HLBVH at 10⁵/10⁶/10⁷ particles — with its
//!   log-log scaling exponent. The exponent is fitted over the *counted
//!   build operations* (machine-independent; linear-time builds sit at
//!   1.0); wall times are reported alongside with their own
//!   informational slope, which is allocator/page-fault bound at 10⁷ on
//!   small CI boxes and therefore not a gate,
//! * a frame-time curve for the tiled packet-traversal renderer.

use crate::cli::Report;
use eth_core::error::Result;
use eth_data::{PointCloud, Vec3};
use eth_render::camera::Camera;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::ray::sphere::SphereRaycaster;
use eth_render::shading::Lighting;
use eth_render::Scratch;
use serde::Serialize;
use std::time::Instant;

/// Schema tag; `check` rejects any other.
pub const SCHEMA: &str = "eth-render-bench/v2";

/// Particle radius used throughout (matches the HACC-like scatter scale).
const RADIUS: f32 = 0.01;

/// One size on the build-time curve.
#[derive(Debug, Clone, Serialize)]
pub struct BuildPoint {
    pub particles: usize,
    /// HLBVH (Morton radix) build wall time, best of the repeats.
    pub hlbvh_ms: f64,
    /// Counted build operations for the HLBVH build (machine-independent).
    pub hlbvh_ops: u64,
}

/// One size on the frame-time curve (tiled packet renderer, HLBVH tree).
#[derive(Debug, Clone, Serialize)]
pub struct FramePoint {
    pub particles: usize,
    pub width: usize,
    pub height: usize,
    pub frame_ms: f64,
    pub rays: u64,
    pub traversal_steps: u64,
    pub tiles: u64,
}

/// Everything `BENCH_render.json` reports.
#[derive(Debug, Clone, Serialize)]
pub struct RenderBenchReport {
    /// Always [`SCHEMA`]; consumers reject anything else.
    pub schema: String,
    /// True for the CI-sized run (timing gates are not enforced there).
    pub quick: bool,
    pub build_curve: Vec<BuildPoint>,
    /// Least-squares slope of log(build ops) vs log(N) over the HLBVH
    /// curve. Counted operations are deterministic and machine-
    /// independent; exactly 1.0 for a linear-time build. The acceptance
    /// gate is < 1.15.
    pub hlbvh_scaling_exponent: f64,
    /// Informational: the same slope fitted over wall-clock build times.
    /// On dedicated hardware this tracks the ops slope; on shared/1-core
    /// CI boxes it absorbs allocator and page-fault noise at 10⁷, so it
    /// is reported but never gated.
    pub hlbvh_wall_exponent: f64,
    pub frame_curve: Vec<FramePoint>,
}

impl Report for RenderBenchReport {
    const DEFAULT_OUT: Option<&'static str> = Some("BENCH_render.json");

    fn summary(&self) -> String {
        let largest = self.build_curve.last().map(|p| p.particles).unwrap_or(0);
        format!(
            "render: hlbvh build ops-scaling exponent {:.3} (wall {:.3}) up to \
             {largest} particles",
            self.hlbvh_scaling_exponent, self.hlbvh_wall_exponent,
        )
    }

    /// Check the contract. The scaling gate only applies to the full-size
    /// run — quick mode checks the schema.
    fn check(&self) -> std::result::Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("schema {:?} != {SCHEMA:?}", self.schema));
        }
        if !self.quick && self.hlbvh_scaling_exponent >= 1.15 {
            return Err(format!(
                "HLBVH build ops-scaling exponent {:.3} >= 1.15 (not near-linear)",
                self.hlbvh_scaling_exponent
            ));
        }
        Ok(())
    }
}

/// Deterministic uniform scatter in [-1, 1]³ (splitmix-style; the same
/// particle set for every run and thread count).
pub fn scatter(n: usize, seed: u64) -> Vec<Vec3> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut rnd = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) as f32 * 2.0 - 1.0
    };
    (0..n).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect()
}

fn cloud(n: usize, seed: u64) -> PointCloud {
    PointCloud::from_positions(scatter(n, seed))
}

fn camera(width: usize, height: usize) -> Camera {
    Camera::look_at(
        Vec3::new(0.0, -3.2, 0.6),
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        45.0,
        width,
        height,
    )
}

fn tf() -> TransferFunction {
    TransferFunction::new(Colormap::Viridis, 0.0, 4.0)
}

/// Best-of-`repeats` wall time of `f`, in milliseconds.
fn best_ms<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.unwrap())
}

/// Least-squares slope of log(ms) vs log(N).
fn loglog_slope(points: &[(usize, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let xs: Vec<f64> = points.iter().map(|&(p, _)| (p as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, ms)| ms.max(1e-6).ln()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let num: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    num / den
}

/// Run the render hot-path benchmark. `quick` shrinks every size so the
/// whole thing finishes in CI seconds; the report notes it so timing
/// gates are skipped.
pub fn run_render_bench(quick: bool) -> Result<RenderBenchReport> {
    let (sizes, repeats): (Vec<usize>, usize) = if quick {
        (vec![10_000, 40_000], 2)
    } else {
        (vec![100_000, 1_000_000, 10_000_000], 5)
    };

    // --- build-time curve -------------------------------------------------
    let mut build_curve = Vec::new();
    for &n in &sizes {
        let centers = scatter(n, 42);
        let repeats = if n >= 10_000_000 { 1 } else { repeats };
        let (hlbvh_ms, bvh) =
            best_ms(repeats, || eth_render::ray::bvh::SphereBvh::build(&centers, RADIUS));
        build_curve.push(BuildPoint {
            particles: n,
            hlbvh_ms,
            hlbvh_ops: bvh.build_ops(),
        });
    }
    let hlbvh_scaling_exponent = loglog_slope(
        &build_curve
            .iter()
            .map(|p| (p.particles, p.hlbvh_ops as f64))
            .collect::<Vec<_>>(),
    );
    let hlbvh_wall_exponent = loglog_slope(
        &build_curve
            .iter()
            .map(|p| (p.particles, p.hlbvh_ms))
            .collect::<Vec<_>>(),
    );

    // --- frame-time curve -------------------------------------------------
    let (frame_sizes, fw, fh) = if quick {
        (vec![10_000usize], 96usize, 72usize)
    } else {
        (vec![100_000usize, 1_000_000], 640, 480)
    };
    let lighting = Lighting::default();
    let mut frame_curve = Vec::new();
    for &n in &frame_sizes {
        let points = cloud(n, 42);
        let rc = SphereRaycaster::build(&points, None, RADIUS, &mut Scratch::new());
        let cam = camera(fw, fh);
        let (frame_ms, (_, stats)) = best_ms(repeats, || {
            rc.render(&cam, &tf(), &lighting, Vec3::ZERO, &mut Scratch::new())
        });
        frame_curve.push(FramePoint {
            particles: n,
            width: fw,
            height: fh,
            frame_ms,
            rays: stats.rays,
            traversal_steps: stats.traversal_steps,
            tiles: stats.tiles,
        });
    }

    Ok(RenderBenchReport {
        schema: SCHEMA.to_string(),
        quick,
        build_curve,
        hlbvh_scaling_exponent,
        hlbvh_wall_exponent,
        frame_curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_meets_correctness_contract() {
        let report = run_render_bench(true).unwrap();
        assert_eq!(report.schema, SCHEMA);
        assert!(report.quick);
        assert_eq!(report.build_curve.len(), 2);
        assert!(report.check().is_ok());
        // JSON round-trips with the schema tag first-class
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("eth-render-bench/v2"));
    }

    #[test]
    fn check_rejects_broken_contracts() {
        let mut report = run_render_bench(true).unwrap();
        report.schema = "bogus".into();
        assert!(report.check().is_err());
        report.schema = SCHEMA.into();
        report.quick = false;
        report.hlbvh_scaling_exponent = 1.2;
        assert!(report.check().is_err());
        report.hlbvh_scaling_exponent = 1.0;
        assert!(report.check().is_ok());
    }

    #[test]
    fn loglog_slope_recovers_exponents() {
        let lin: Vec<(usize, f64)> = vec![(1_000, 1.0), (10_000, 10.0), (100_000, 100.0)];
        assert!((loglog_slope(&lin) - 1.0).abs() < 1e-9);
        let quad: Vec<(usize, f64)> = vec![(1_000, 1.0), (10_000, 100.0)];
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
    }
}
