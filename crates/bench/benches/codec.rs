//! Codec layer against its hardware reference (ROADMAP item 2): `crc32`,
//! `binary::encode` and `binary::decode` beside a `copy_from_slice` of the
//! same byte count, at a cache-resident and a DRAM-sized block. Encode and
//! decode at best copy every byte once and checksum it once, so the copy
//! row is their ceiling and the crc row is the rest of their cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eth_data::crc::crc32;
use eth_data::io::binary;
use eth_data::{Attribute, DataObject, PointCloud, Vec3};

/// A HACC-shaped block (positions + velocity + mass + id = 36 B/particle)
/// whose encoding is `bytes` long to within one particle.
fn block(bytes: usize) -> DataObject {
    let n = bytes / 36;
    let f = |i: usize| (i as f32).mul_add(1e-3, 0.5);
    let mut cloud = PointCloud::from_positions(
        (0..n)
            .map(|i| Vec3::new(f(i), f(i + 1), f(i + 2)))
            .collect(),
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

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (label, target) in [("1MiB", 1usize << 20), ("32MiB", 32 << 20)] {
        let obj = block(target);
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
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
