//! Property tests for the zero-copy dataset encode/decode path: every
//! `DataObject` shape round-trips exactly, and the computed encoded length
//! always matches the bytes actually produced.

use eth::data::field::Attribute;
use eth::data::io::binary::{decode, encode, encoded_len};
use eth::data::{DataObject, PointCloud, UniformGrid, Vec3};
use eth::data::compress::Codec;
use eth::data::io::pool::PayloadPool;
use proptest::prelude::*;

fn arb_vec3() -> impl Strategy<Value = Vec3> {
    (-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0)
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_points() -> impl Strategy<Value = DataObject> {
    (prop::collection::vec(arb_vec3(), 0..40), 0u64..u64::MAX).prop_map(|(pos, salt)| {
        let n = pos.len();
        let mut cloud = PointCloud::from_positions(pos);
        // Attributes of every kind, sized to the cloud, varied by `salt`.
        let f = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ salt;
        cloud
            .set_attribute(
                "s",
                Attribute::Scalar((0..n).map(|i| f(i) as f32 * 1e-12 - 3.0).collect()),
            )
            .unwrap();
        cloud
            .set_attribute(
                "v",
                Attribute::Vector(
                    (0..n)
                        .map(|i| Vec3::new(f(i) as f32 * 1e-12, -(i as f32), 0.25 * i as f32))
                        .collect(),
                ),
            )
            .unwrap();
        cloud
            .set_attribute("id", Attribute::Id((0..n).map(f).collect()))
            .unwrap();
        DataObject::Points(cloud)
    })
}

fn arb_grid() -> impl Strategy<Value = DataObject> {
    (2usize..6, 2usize..6, 2usize..6, arb_vec3(), 0.01f32..2.0)
        .prop_map(|(nx, ny, nz, origin, h)| {
            let mut grid = UniformGrid::new([nx, ny, nz], origin, Vec3::splat(h)).unwrap();
            let n = grid.num_vertices();
            grid.set_attribute(
                "field",
                Attribute::Scalar((0..n).map(|i| (i as f32).sin()).collect()),
            )
            .unwrap();
            DataObject::Grid(grid)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Point clouds with every attribute kind survive the wire exactly.
    #[test]
    fn points_roundtrip(obj in arb_points()) {
        let wire = encode(&obj);
        prop_assert_eq!(wire.len(), encoded_len(&obj));
        let back = decode(wire).unwrap();
        prop_assert_eq!(obj, back);
    }

    /// Grids survive the wire exactly.
    #[test]
    fn grids_roundtrip(obj in arb_grid()) {
        let wire = encode(&obj);
        prop_assert_eq!(wire.len(), encoded_len(&obj));
        let back = decode(wire).unwrap();
        prop_assert_eq!(obj, back);
    }

    /// The wire codec's default, into a leased buffer, agrees with the
    /// data-layer encoder, and its decode views the payload in place.
    #[test]
    fn transport_wrappers_agree(obj in arb_points()) {
        let payload = Codec::Lossless.encode_in(&obj, &PayloadPool::new());
        prop_assert_eq!(payload.len(), encoded_len(&obj));
        prop_assert_eq!(&payload, &encode(&obj));
        let range = payload.as_ptr_range();
        let back = Codec::Lossless.decode(payload.clone()).unwrap();
        let positions = back.as_points().unwrap().positions().as_ptr_range();
        prop_assert!(positions.start == positions.end
            || (range.start <= positions.start.cast() && positions.end.cast() <= range.end));
        prop_assert_eq!(obj, back);
    }

    /// Truncating an encoded payload anywhere must error, never panic.
    #[test]
    fn truncation_fails_cleanly(obj in arb_points(), frac in 0.0f64..1.0) {
        let wire = encode(&obj).to_vec();
        let cut = ((wire.len() as f64) * frac) as usize;
        if cut < wire.len() {
            let got = decode(bytes::Bytes::from(wire[..cut].to_vec()));
            prop_assert!(got.is_err());
        }
    }
}
