//! Parent-anchored golden table for the two grid extraction filters.
//!
//! `fixtures/grid_golden.txt` was generated at the commit *before*
//! `extract_isosurface` and `extract_slice` were rebuilt on the shared
//! sign-sweep + ordered-emission extractor (PR 18's parent, 847fd24), by
//! running [`print_rows`] there three times — every row repeated byte for
//! byte, in debug and in release builds. The extractor must reproduce each
//! mesh exactly: the CRC-32 of the raw little-endian `positions`, `normals`,
//! `scalars` and `indices` arrays (so vertex numbering and triangle order
//! too), the full extraction statistics, and the colour and depth planes of
//! the frame `pipeline::render` makes of it.
//!
//! One column is younger: `fragments=` was regenerated when the triangle
//! rasterizer moved onto the scatter kernel (PR 19). Until then it counted
//! depth-test passes inside per-chunk framebuffers, so it depended on the
//! chunk count and three rows failed on a one-core runner; it now counts
//! fragments inside the image before the depth test, a function of mesh
//! and camera alone. Every other column of every row is the parent's.
//!
//! Rows cover x-extents on both sides of a 64-vertex word boundary, empty
//! and tie isovalues, rank slabs, constant / non-finite / masked fields,
//! two-vertex-thick and degenerate grids, and slicing planes through
//! vertices, oblique, outside the grid and two at once.
//!
//! To regenerate (only ever at a commit whose output you trust):
//! `cargo test -p eth-render --test grid_golden -- --ignored --nocapture print_rows`
//! and copy the lines between the `BEGIN`/`END` markers.

use eth_data::crc::crc32;
use eth_data::field::Attribute;
use eth_data::partition::partition_grid_slabs;
use eth_data::sampling::{sample_grid_field, SamplingSpec};
use eth_data::{DataObject, UniformGrid, Vec3};
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::geometry::slice::extract_slice;
use eth_render::geometry::{Plane, TriangleMesh};
use eth_render::pipeline::{render, RenderOptions};
use eth_render::{Camera, RenderAlgorithm};
use eth_render::Scratch;
use eth_sim::xrage::XrageConfig;

const GOLDEN: &str = include_str!("fixtures/grid_golden.txt");
const FIELD: &str = "temperature";

fn crc_f32(values: impl Iterator<Item = f32>) -> String {
    let raw: Vec<u8> = values.flat_map(f32::to_le_bytes).collect();
    format!("{:08x}", crc32(&raw))
}

fn crc_vec3<'a>(values: impl Iterator<Item = &'a Vec3>) -> String {
    crc_f32(values.flat_map(|v| [v.x, v.y, v.z]))
}

fn mesh_columns(mesh: &TriangleMesh) -> String {
    let indices: Vec<u8> = mesh
        .indices
        .iter()
        .flatten()
        .flat_map(|i| i.to_le_bytes())
        .collect();
    format!(
        "pos={} nrm={} sca={} idx={:08x}",
        crc_vec3(mesh.positions.iter()),
        crc_vec3(mesh.normals.iter()),
        crc_f32(mesh.scalars.iter().copied()),
        crc32(&indices),
    )
}

/// The frame `pipeline::render` makes of `grid` — it runs the extraction
/// again itself, so its counters pin the path the harness takes.
fn frame_columns(grid: &UniformGrid, algorithm: &RenderAlgorithm) -> String {
    let data = DataObject::Grid(grid.clone());
    // neither square nor a multiple of 16
    let camera = Camera::framing(&data.bounds(), 150, 90);
    let opts = RenderOptions {
        scalar: Some(FIELD.to_string()),
        ..Default::default()
    };
    let out = render(&data, algorithm, &camera, &opts).expect("grid algorithms render grids");
    let fb = out.framebuffer;
    format!(
        "build_ops={} triangles={} fragments={} covered={} color={} depth={}",
        out.stats.build_ops,
        out.stats.triangles,
        out.stats.fragments,
        fb.fragments_landed(),
        crc_vec3(fb.color_buffer().iter()),
        crc_f32(fb.depth_buffer().iter().copied()),
    )
}

fn iso_row(name: &str, grid: &UniformGrid, isovalue: f32) -> String {
    let (mesh, s) = extract_isosurface(grid, FIELD, isovalue).expect("field present");
    format!(
        "{name} iso={isovalue:?} {} scanned={} crossed={} tris={} verts={} {}",
        mesh_columns(&mesh),
        s.cells_scanned,
        s.cells_crossed,
        s.triangles,
        s.vertices,
        frame_columns(grid, &RenderAlgorithm::VtkIsosurface { isovalue }),
    )
}

fn slice_rows(name: &str, grid: &UniformGrid, planes: &[Plane], out: &mut Vec<String>) {
    for (p, plane) in planes.iter().enumerate() {
        let (mesh, s) =
            extract_slice(grid, FIELD, plane, &mut Scratch::new()).expect("field present");
        out.push(format!(
            "{name} plane={p} {} scanned={} cut={} tris={}",
            mesh_columns(&mesh),
            s.cells_scanned,
            s.cells_cut,
            s.triangles,
        ));
    }
    let algorithm = RenderAlgorithm::VtkSlice {
        planes: planes.to_vec(),
    };
    out.push(format!("{name} frame {}", frame_columns(grid, &algorithm)));
}

/// A small grid over the unit-ish cube carrying `values(i, j, k)`.
fn synthetic(dims: [usize; 3], values: impl Fn(usize, usize, usize) -> f32) -> UniformGrid {
    let mut grid = UniformGrid::new(dims, Vec3::new(-0.5, 0.25, 0.0), Vec3::new(0.1, 0.07, 0.13))
        .expect("positive dims and spacing");
    let mut field = Vec::with_capacity(grid.num_vertices());
    for k in 0..dims[2] {
        for j in 0..dims[1] {
            for i in 0..dims[0] {
                field.push(values(i, j, k));
            }
        }
    }
    grid.set_attribute(FIELD, Attribute::Scalar(field.into()))
        .expect("one value per vertex");
    grid
}

/// A smooth wave crossing 0.5 many times, used by the synthetic rows.
fn wave(i: usize, j: usize, k: usize) -> f32 {
    0.5 + 0.5 * ((i as f32 * 0.9).sin() * (j as f32 * 0.7).cos() + (k as f32 * 0.5).sin() * 0.5)
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();

    // xRAGE: x-extent below, on, above and two words past a 64-vertex word.
    for dims in [[63, 40, 33], [64, 40, 33], [65, 40, 33], [130, 21, 19]] {
        let cfg = XrageConfig::with_dims(dims);
        for step in [0, 3] {
            let grid = cfg.generate(step).expect("xrage generates");
            let values = grid.scalar(FIELD).expect("temperature");
            let front = cfg.front_isovalue(step);
            // a stored value: the vertex nearest the front ties the isovalue
            let tie = values
                .iter()
                .copied()
                .min_by(|a, b| (a - front).abs().total_cmp(&(b - front).abs()))
                .expect("non-empty grid");
            let name = format!("xrage-{}x{}x{}-s{step}", dims[0], dims[1], dims[2]);
            for isovalue in [front, 1.0e6, tie] {
                out.push(iso_row(&name, &grid, isovalue));
            }
        }
    }

    // The slabs the harness hands each rank.
    let cfg = XrageConfig::with_dims([65, 40, 33]);
    let whole = cfg.generate(0).expect("xrage generates");
    let front = cfg.front_isovalue(0);
    for ranks in [2, 3] {
        let slabs = partition_grid_slabs(&whole, ranks).expect("slabs");
        for (r, slab) in slabs.iter().enumerate() {
            out.push(iso_row(&format!("slab-{r}of{ranks}"), slab, front));
        }
    }

    // The harness's sampling mask: three quarters of the vertices at background.
    let spec = SamplingSpec::new(0.25, 7).expect("ratio in (0, 1]");
    let masked = sample_grid_field(&whole, FIELD, &spec, cfg.ambient).expect("mask");
    out.push(iso_row("masked-0.25", &masked, front));

    out.push(iso_row(
        "constant",
        &synthetic([9, 8, 7], |_, _, _| 0.5),
        0.5,
    ));
    out.push(iso_row(
        "constant-below",
        &synthetic([9, 8, 7], |_, _, _| 0.5),
        0.25,
    ));

    // NaN, +inf and -inf pockets inside a smooth wave.
    let nonfinite = synthetic([20, 17, 15], |i, j, k| match (i, j, k) {
        (3..=5, 3..=5, 3..=4) => f32::NAN,
        (12..=14, 4..=5, 9..=10) => f32::INFINITY,
        (5..=6, 11..=13, 9..=11) => f32::NEG_INFINITY,
        (19, 16, _) => f32::NAN,
        _ => wave(i, j, k),
    });
    out.push(iso_row("nonfinite", &nonfinite, 0.5));

    for dims in [[2, 9, 11], [9, 2, 11], [9, 11, 2], [2, 2, 2], [70, 2, 2]] {
        let name = format!("thin-{}x{}x{}", dims[0], dims[1], dims[2]);
        out.push(iso_row(&name, &synthetic(dims, wave), 0.5));
    }
    for dims in [[1, 5, 5], [5, 1, 5], [5, 5, 1]] {
        let name = format!("flat-{}x{}x{}", dims[0], dims[1], dims[2]);
        out.push(iso_row(&name, &synthetic(dims, wave), 0.5));
    }

    // Slices. A vertex's own coordinate as the offset makes d == 0.0 there.
    let through = |axis: usize, index: usize| {
        let mut at = [0usize; 3];
        at[axis] = index;
        let p = whole.vertex_position(at[0], at[1], at[2]);
        Plane::axis_aligned(axis, [p.x, p.y, p.z][axis])
    };
    let oblique = Plane::from_point_normal(Vec3::new(0.9, 1.0, 0.8), Vec3::new(1.0, -0.6, 0.35));
    let outside = Plane::axis_aligned(1, 5.0);
    slice_rows(
        "slice-x-through-vertices",
        &whole,
        &[through(0, 31)],
        &mut out,
    );
    slice_rows(
        "slice-z-through-vertices",
        &whole,
        &[through(2, 16)],
        &mut out,
    );
    slice_rows("slice-oblique", &whole, &[oblique], &mut out);
    slice_rows("slice-outside", &whole, &[outside], &mut out);
    slice_rows("slice-two", &whole, &[through(1, 20), oblique], &mut out);
    slice_rows(
        "slice-nonfinite",
        &nonfinite,
        &[Plane::from_point_normal(
            Vec3::new(0.4, 0.8, 0.9),
            Vec3::new(0.3, 1.0, -0.2),
        )],
        &mut out,
    );
    slice_rows(
        "slice-thin",
        &synthetic([70, 2, 2], wave),
        &[Plane::axis_aligned(0, 2.05)],
        &mut out,
    );
    slice_rows(
        "slice-flat",
        &synthetic([5, 5, 1], wave),
        &[Plane::axis_aligned(0, 0.0)],
        &mut out,
    );
    out
}

#[test]
fn extractors_reproduce_the_parent_table() {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let rows = rows();
    assert_eq!(golden.len(), rows.len(), "one fixture row per extraction");
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
