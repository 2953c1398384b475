//! Codec layer against its hardware reference (ROADMAP item 2): `crc32`,
//! `binary::encode` and `binary::decode` beside a `copy_from_slice` of the
//! same byte count, at a cache-resident and a DRAM-sized block. Encode at
//! best copies every byte once and checksums it once, so the copy row is
//! its ceiling and the crc row the rest of its cost; decode checksums the
//! bytes and views them in place, so the crc row is its floor.
//!
//! The `encode` row runs where the allocator is kindest: one thread that
//! allocates and frees the same size over and over, so glibc hands the same
//! pages back. The harness does not — a rank thread that lives for one run
//! encodes, another thread drops — so the `threaded` rows encode inside a
//! freshly spawned thread and drop the result on the caller's:
//! `encode_threaded` has its buffers mapped, faulted in and unmapped every
//! time (they outgrow the thread arena's 64 MB heap, and glibc unmaps an
//! arena heap the moment it empties), `encode_in_threaded` (a
//! [`PayloadPool`] lease) does not. What glibc does depends on what else
//! lives in the arena, so the thread is given a rank's company: two blocks
//! in flight (the simulation side runs a step ahead) beside one array half
//! a block long (a decoded field). With an arena to itself the plain row
//! mostly escapes; no rank has one. The third block is the
//! `xrage.iso.intercore` benchmark workload's: one rank's slab of a 192³
//! grid with two fields.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eth_data::crc::crc32;
use eth_data::io::binary;
use eth_data::io::pool::PayloadPool;
use eth_data::{Attribute, DataObject, Fields, PointCloud, UniformGrid, Vec3};

/// A HACC-shaped block (positions + velocity + mass + id = 36 B/particle)
/// whose encoding is `bytes` long to within one particle.
fn block(bytes: usize) -> DataObject {
    let n = bytes / 36;
    let f = |i: usize| (i as f32).mul_add(1e-3, 0.5);
    let mut cloud = PointCloud::from_positions(
        (0..n)
            .map(|i| Vec3::new(f(i), f(i + 1), f(i + 2)))
            .collect::<Vec<_>>(),
    );
    cloud
        .set_attribute(
            "vel",
            Attribute::Vector((0..n).map(|i| Vec3::splat(f(i))).collect()),
        )
        .expect("length matches");
    cloud
        .set_attribute("mass", Attribute::Scalar((0..n).map(f).collect()))
        .expect("length matches");
    cloud
        .set_attribute("id", Attribute::Id((0..n as u64).collect()))
        .expect("length matches");
    DataObject::Points(cloud)
}

/// One rank's half of a 192³ two-field grid: 28 MB encoded.
fn grid_slab() -> DataObject {
    let mut grid = UniformGrid::new([192, 192, 96], Vec3::ZERO, Vec3::ONE).expect("valid dims");
    let n = grid.num_vertices();
    for name in ["density", "temperature"] {
        let field = (0..n).map(|i| (i as f32).mul_add(1e-3, 0.5)).collect();
        grid.set_attribute(name, Attribute::Scalar(field))
            .expect("length matches");
    }
    DataObject::Grid(grid)
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let blocks = [
        ("1MiB", block(1 << 20)),
        ("32MiB", block(32 << 20)),
        ("28MB-grid", grid_slab()),
    ];
    let pool = PayloadPool::new();
    for (label, obj) in blocks {
        let encoded = binary::encode(&obj);
        let mut scratch = vec![0u8; encoded.len()];
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_function(BenchmarkId::new("copy_from_slice", label), |b| {
            b.iter(|| {
                scratch.copy_from_slice(&encoded);
                black_box(scratch[scratch.len() / 2])
            })
        });
        group.bench_function(BenchmarkId::new("crc32", label), |b| {
            b.iter(|| crc32(black_box(&encoded)))
        });
        group.bench_function(BenchmarkId::new("encode", label), |b| {
            b.iter(|| binary::encode(black_box(&obj)))
        });
        group.bench_function(BenchmarkId::new("decode", label), |b| {
            b.iter(|| binary::decode(black_box(encoded.clone())))
        });
        // a rank thread's life in a two-step run (see the module docs)
        let on_a_fresh_thread = |encode: &(dyn Fn() -> eth_data::Bytes + Sync)| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let neighbour = black_box(vec![1u8; encoded.len() / 2]);
                    let in_flight = [encode(), encode()];
                    drop(neighbour);
                    in_flight
                })
                .join()
                .expect("the encoder does not panic")
            })
        };
        group.throughput(Throughput::Bytes(2 * encoded.len() as u64));
        group.bench_function(BenchmarkId::new("encode_threaded", label), |b| {
            b.iter(|| on_a_fresh_thread(&|| binary::encode(black_box(&obj))))
        });
        group.bench_function(BenchmarkId::new("encode_in_threaded", label), |b| {
            b.iter(|| on_a_fresh_thread(&|| binary::encode_in(black_box(&obj), Fields::All, &pool)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
