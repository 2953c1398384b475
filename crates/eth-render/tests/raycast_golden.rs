//! Parent-anchored golden table for the three raycasters.
//!
//! `fixtures/raycast_golden.txt` was generated at the commit *before* the
//! sphere raycaster took a per-frame ray generator, an inlined packet slab
//! test, in-place tiles and a fewer-pass HLBVH build (e5b7bc3), by
//! running [`print_rows`] there three times in debug, once in
//! release and once under `taskset -c 0` — every row repeated byte for
//! byte. Every raycaster must reproduce each frame exactly: the CRC-32 of
//! the raw little-endian colour plane and of the depth plane, and the
//! counters the ledger reports (`rays`, `ray_steps`, `hits`, `tiles`,
//! `build_ops`).
//!
//! Sphere rows also pin the tree itself, built by `SphereBvh::build` over
//! the same centres: its node count, and the CRC-32 of its `Debug` text —
//! the one view of the private node array, the reordered centres and
//! `prim_index` a test outside the crate has — so "same tree node for
//! node" is checked here too, not only in the crate's own reference test.
//!
//! Rows cover odd image sizes (97×61, 150×90), so edge tiles are clipped,
//! two views sharing one tree through `render_views`, colouring by a scalar
//! and by depth, a radius larger than the view distance (rays that start
//! inside spheres), coincident centres, NaN and ±∞ centres, an empty
//! cloud, and `render_isosurface` / `render_slices` on small xRAGE grids.
//!
//! To regenerate (only ever at a commit whose output you trust):
//! `cargo test -p eth-render --test raycast_golden -- --ignored --nocapture print_rows`
//! and copy the lines between the `BEGIN`/`END` markers.

use eth_data::crc::crc32;
use eth_data::field::Attribute;
use eth_data::partition::partition_grid_slabs;
use eth_data::{Aabb, DataObject, PointCloud, Vec3};
use eth_render::geometry::Plane;
use eth_render::pipeline::{render_views, RenderOptions, RenderOutput};
use eth_render::ray::bvh::SphereBvh;
use eth_render::{Camera, RenderAlgorithm};
use eth_render::Scratch;
use eth_sim::hacc::HaccConfig;
use eth_sim::xrage::XrageConfig;

const GOLDEN: &str = include_str!("fixtures/raycast_golden.txt");

fn crc_f32(values: impl Iterator<Item = f32>) -> String {
    let raw: Vec<u8> = values.flat_map(f32::to_le_bytes).collect();
    format!("{:08x}", crc32(&raw))
}

fn view_columns(out: &RenderOutput) -> String {
    let fb = &out.framebuffer;
    let s = &out.stats;
    format!(
        "color={} depth={} rays={} steps={} hits={} tiles={} build_ops={}",
        crc_f32(fb.color_buffer().iter().flat_map(|c| [c.x, c.y, c.z])),
        crc_f32(fb.depth_buffer().iter().copied()),
        s.rays,
        s.ray_steps,
        s.fragments,
        s.tiles,
        s.build_ops,
    )
}

/// Two views of one scene: `first`, and the same eye orbited a quarter
/// turn about the vertical axis through `center`.
fn two_views(first: Camera, center: Vec3) -> [Camera; 2] {
    let rel = first.position - center;
    let turned = center + Vec3::new(-rel.y, rel.x, rel.z);
    let second = Camera::look_at(
        turned,
        center,
        Vec3::new(0.0, 0.0, 1.0),
        first.fov_y.to_degrees(),
        first.width,
        first.height,
    );
    [first, second]
}

/// Rows for one sphere scene: the tree's own columns, then one row per
/// view of `render_views`.
fn sphere_rows(
    name: &str,
    cloud: &PointCloud,
    radius: f32,
    cameras: &[Camera],
    opts: &RenderOptions,
    out: &mut Vec<String>,
) {
    let bvh = SphereBvh::build(cloud.positions(), radius);
    out.push(format!(
        "{name} tree nodes={} build_ops={} tree={:08x}",
        bvh.num_nodes(),
        bvh.build_ops(),
        crc32(format!("{bvh:?}").as_bytes()),
    ));
    let data = DataObject::Points(cloud.clone());
    let views = render_views(
        &data,
        &RenderAlgorithm::RaycastSpheres { radius },
        cameras,
        opts,
        &mut Scratch::new(),
    )
    .expect("raycast spheres render point clouds");
    for (v, view) in views.iter().enumerate() {
        out.push(format!("{name} view={v} {}", view_columns(view)));
    }
}

fn options(scalar: Option<&str>) -> RenderOptions {
    RenderOptions {
        scalar: scalar.map(str::to_string),
        ..Default::default()
    }
}

/// A small cloud with every eighth centre hostile: NaN, +∞ or −∞ in one
/// coordinate, in turn.
fn hostile_cloud() -> PointCloud {
    let mut positions = Vec::new();
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    };
    for i in 0..2_000 {
        let p = Vec3::new(rnd(), rnd(), rnd());
        positions.push(match i % 8 {
            1 => Vec3::new(f32::NAN, p.y, p.z),
            3 => Vec3::new(p.x, f32::INFINITY, p.z),
            5 => Vec3::new(p.x, p.y, f32::NEG_INFINITY),
            _ => p,
        });
    }
    let n = positions.len();
    let mut cloud = PointCloud::from_positions(positions);
    cloud
        .set_attribute(
            "v",
            Attribute::Scalar((0..n).map(|i| (i % 17) as f32).collect()),
        )
        .expect("one value per particle");
    cloud
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();

    // HACC: odd sizes, two views sharing one tree.
    let hacc = HaccConfig::with_particles(20_000)
        .generate(1)
        .expect("hacc generates");
    let bounds = hacc.bounds();
    for (w, h) in [(97, 61), (150, 90)] {
        let cameras = two_views(Camera::framing(&bounds, w, h), bounds.center());
        sphere_rows(
            &format!("hacc-{w}x{h}-tile16"),
            &hacc,
            0.03,
            &cameras,
            &options(Some("density")),
            &mut out,
        );
    }
    let cameras = two_views(Camera::framing(&bounds, 97, 61), bounds.center());
    sphere_rows(
        "hacc-97x61-by-depth",
        &hacc,
        0.004,
        &cameras,
        &options(None),
        &mut out,
    );
    // every ray starts inside some sphere
    let inside = Camera::look_at(
        bounds.center(),
        bounds.max,
        Vec3::new(0.0, 0.0, 1.0),
        60.0,
        97,
        61,
    );
    sphere_rows(
        "hacc-97x61-radius-beyond-eye",
        &hacc,
        0.6,
        &[inside],
        &options(Some("density")),
        &mut out,
    );

    // Coincident centres: one point 300 times among a few distinct ones,
    // and a cloud that is one point.
    let eye = Camera::look_at(
        Vec3::new(0.3, -4.0, 0.8),
        Vec3::new(0.5, 0.5, 0.5),
        Vec3::new(0.0, 0.0, 1.0),
        45.0,
        97,
        61,
    );
    let mut dup = vec![Vec3::splat(0.5); 300];
    dup.extend([
        Vec3::new(0.1, 0.2, 0.3),
        Vec3::new(0.9, 0.1, 0.4),
        Vec3::new(0.5, 0.5, 0.5),
        Vec3::new(0.2, 0.8, 0.7),
    ]);
    sphere_rows(
        "coincident-mixed",
        &PointCloud::from_positions(dup),
        0.1,
        &[eye],
        &options(None),
        &mut out,
    );
    sphere_rows(
        "coincident-all",
        &PointCloud::from_positions(vec![Vec3::new(0.5, 0.5, 0.5); 1_000]),
        0.2,
        &[eye],
        &options(None),
        &mut out,
    );

    // NaN and ±∞ centres, looked at along two axes so zero direction
    // components meet the slab test.
    let hostile = hostile_cloud();
    let axis = Camera::look_at(
        Vec3::new(0.0, -5.0, 0.0),
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        45.0,
        97,
        61,
    );
    let oblique = Camera::look_at(
        Vec3::new(2.0, -3.0, 1.5),
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        50.0,
        150,
        90,
    );
    sphere_rows(
        "hostile",
        &hostile,
        0.05,
        &[axis, oblique],
        &options(Some("v")),
        &mut out,
    );

    sphere_rows(
        "empty",
        &PointCloud::new(),
        0.05,
        &[axis],
        &options(None),
        &mut out,
    );

    // xRAGE: the ray marcher and the ray/plane slicer, on a whole small
    // grid and on one rank slab of it.
    let cfg = XrageConfig::with_dims([24, 20, 28]);
    let whole = cfg.generate(0).expect("xrage generates");
    let slab = partition_grid_slabs(&whole, 2)
        .expect("two slabs")
        .remove(1);
    let isovalue = cfg.front_isovalue(0);
    let planes = vec![
        Plane::axis_aligned(0, 0.5),
        Plane::from_point_normal(whole.bounds().center(), Vec3::new(1.0, -0.6, 0.35)),
    ];
    for (name, grid) in [("xrage", whole), ("xrage-slab1", slab)] {
        let data = DataObject::Grid(grid);
        let b: Aabb = data.bounds();
        for (w, h) in [(97, 61), (150, 90)] {
            let cameras = two_views(Camera::framing(&b, w, h), b.center());
            let opts = options(Some("temperature"));
            for (label, algorithm) in [
                ("iso", RenderAlgorithm::RaycastIsosurface { isovalue }),
                (
                    "slice",
                    RenderAlgorithm::RaycastSlice {
                        planes: planes.clone(),
                    },
                ),
            ] {
                let views = render_views(&data, &algorithm, &cameras, &opts, &mut Scratch::new())
                    .expect("grids render");
                for (v, view) in views.iter().enumerate() {
                    out.push(format!(
                        "{name}-{w}x{h}-{label} view={v} {}",
                        view_columns(view)
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn raycasters_reproduce_the_parent_table() {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let rows = rows();
    assert_eq!(golden.len(), rows.len(), "one fixture row per line");
    let mismatches: Vec<String> = golden
        .iter()
        .zip(&rows)
        .filter(|(want, got)| *want != got)
        .map(|(want, got)| format!("want {want}\n got {got}"))
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
#[ignore = "prints the table; run at a trusted commit to regenerate the fixture"]
fn print_rows() {
    println!("BEGIN");
    for row in rows() {
        println!("{row}");
    }
    println!("END");
}
