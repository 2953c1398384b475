//! Parent-anchored golden table for the two particle rasterizers.
//!
//! `fixtures/particle_golden.txt` was generated at the commit *before*
//! `render_points` and `render_splats` were rebuilt on the shared
//! scatter/resolve kernel (PR 14's parent, 400885c), by running
//! [`print_rows`] there three times — every row repeated byte for byte. The
//! kernel must reproduce each frame exactly: the CRC-32 of the raw
//! little-endian colour plane and of the depth plane. (`fragments` is not
//! pinned: PR 14 redefined it as an order-independent count.) The sibling
//! `crates/core/tests/coupling_golden.rs` pins sub-pixel splat frames
//! through the whole harness; this table adds `VtkPoints` at every block
//! size class and splat radii on both sides of the sub-pixel cut, up to a
//! radius larger than the view depth (negative impostor depths).
//!
//! To regenerate (only ever at a commit whose output you trust):
//! `cargo test -p eth-render --test particle_golden -- --ignored --nocapture print_rows`
//! and copy the lines between the `BEGIN`/`END` markers.

use eth_data::crc::crc32;
use eth_data::DataObject;
use eth_render::pipeline::{render, RenderOptions};
use eth_render::{Camera, RenderAlgorithm};
use eth_sim::hacc::HaccConfig;

const GOLDEN: &str = include_str!("fixtures/particle_golden.txt");

fn algorithms() -> Vec<(String, RenderAlgorithm)> {
    let points = [1, 2, 5, 9].map(|point_size| {
        (
            format!("points-{point_size}"),
            RenderAlgorithm::VtkPoints { point_size },
        )
    });
    let splats = [0.005, 0.016, 0.05, 0.3, 3.0].map(|radius| {
        (
            format!("splat-{radius}"),
            RenderAlgorithm::GaussianSplat { radius },
        )
    });
    points.into_iter().chain(splats).collect()
}

fn rows() -> Vec<String> {
    let cloud = HaccConfig::with_particles(20_000)
        .generate(1)
        .expect("hacc generates");
    let data = DataObject::Points(cloud);
    // neither square nor a multiple of 16
    let camera = Camera::framing(&data.bounds(), 150, 90);
    let crc = |values: &mut dyn Iterator<Item = f32>| {
        let raw: Vec<u8> = values.flat_map(f32::to_le_bytes).collect();
        format!("{:08x}", crc32(&raw))
    };
    let mut out = Vec::new();
    for (name, algorithm) in algorithms() {
        for scalar in [Some("density"), None] {
            let opts = RenderOptions {
                scalar: scalar.map(str::to_string),
                ..Default::default()
            };
            let fb = render(&data, &algorithm, &camera, &opts)
                .expect("particle algorithms render point clouds")
                .framebuffer;
            out.push(format!(
                "{name} by={} covered={} color={} depth={}",
                scalar.unwrap_or("depth"),
                fb.fragments_landed(),
                crc(&mut fb.color_buffer().iter().flat_map(|c| [c.x, c.y, c.z])),
                crc(&mut fb.depth_buffer().iter().copied()),
            ));
        }
    }
    out
}

#[test]
fn rasterizers_reproduce_the_parent_table() {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let rows = rows();
    assert_eq!(golden.len(), rows.len(), "one fixture row per frame");
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
