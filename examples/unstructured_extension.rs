//! The Section VII extension: unstructured-grid data in ETH.
//!
//! Walks the full xRAGE data path with the intermediate representation
//! exposed: AMR octree → unstructured tetrahedral mesh → (a) direct
//! isosurface extraction with marching tetrahedra, and (b) downsampling to
//! a structured grid followed by the standard grid pipelines — then
//! compares the two routes' images.
//!
//! ```text
//! cargo run --release --example unstructured_extension
//! ```

use eth::core::config::orbit_camera;
use eth::render::color::{Colormap, TransferFunction};
use eth::render::geometry::unstructured::extract_isosurface_unstructured;
use eth::render::raster::triangle::rasterize_mesh;
use eth::render::shading::Lighting;
use eth::render::Scratch;
use eth::sim::XrageConfig;
use eth::data::Vec3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = XrageConfig {
        amr_depth: 5,
        ..XrageConfig::with_dims([48, 48, 48])
    };
    let step = 2;
    let iso = cfg.front_isovalue(step);

    // --- the intermediate representation ------------------------------
    let mesh = cfg.generate_unstructured(step)?;
    println!(
        "unstructured intermediate: {} vertices, {} tets, {:.1} MB \
         (volume {:.3} of domain {:.3})",
        mesh.num_points(),
        mesh.num_cells(),
        mesh.payload_bytes() as f64 / 1e6,
        mesh.total_volume(),
        cfg.domain().volume(),
    );

    // --- route (a): isosurface directly on the tets --------------------
    let (surface, stats) = extract_isosurface_unstructured(&mesh, "temperature", iso)?;
    println!(
        "marching tetrahedra: scanned {} cells, {} crossed, {} triangles",
        stats.cells_scanned, stats.cells_crossed, stats.triangles
    );
    let camera = orbit_camera(&mesh.bounds(), 256, 256, 0, 1);
    let tf = TransferFunction::new(Colormap::Hot, 300.0, 6000.0);
    let lighting = Lighting::default();
    let (fb_direct, _) = rasterize_mesh(
        &surface,
        &tf,
        &camera,
        &lighting,
        Vec3::ZERO,
        &mut Scratch::new(),
    );
    let img_direct = fb_direct.into_image();

    // --- route (b): downsample to structured, then the grid pipeline ---
    let grid = mesh.resample("temperature", [48, 48, 48], cfg.ambient)?;
    let (grid_surface, _) =
        eth::render::geometry::marching_cubes::extract_isosurface(&grid, "temperature", iso)?;
    let (fb_via_grid, _) = rasterize_mesh(
        &grid_surface,
        &tf,
        &camera,
        &lighting,
        Vec3::ZERO,
        &mut Scratch::new(),
    );
    let img_via_grid = fb_via_grid.into_image();

    // --- compare the two routes ----------------------------------------
    let rmse = img_direct.rmse(&img_via_grid)?;
    let ssim = img_direct.ssim(&img_via_grid)?;
    println!(
        "direct-vs-downsampled isosurface: RMSE {rmse:.4}, SSIM {ssim:.3} \
         (the downsampling stage blurs the front slightly)"
    );

    let dir = std::env::temp_dir().join("eth-unstructured");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("iso_direct.png"), img_direct.to_png())?;
    std::fs::write(dir.join("iso_downsampled.png"), img_via_grid.to_png())?;
    println!("artifacts in {}", dir.display());
    Ok(())
}
