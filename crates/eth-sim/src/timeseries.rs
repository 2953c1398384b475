//! On-disk layout of the "preliminary run".
//!
//! "We make a preliminary run of the simulation itself on the science case,
//! and write data out as if for simple post-processing analysis … Our
//! simulation proxy then reads the simulation data into memory and presents
//! it to the simulation/analysis interface as if by the simulation itself."
//! (Section I)
//!
//! Layout:
//!
//! ```text
//! <root>/
//!   manifest.json                   # name, ranks, steps, format
//!   step_0000/rank_0000.ebd
//!   step_0000/rank_0001.ebd
//!   ...
//! ```
//!
//! Every rank's block is a self-contained dataset, so "each parallel
//! process of the proxy is able to load the data that it will pass to the
//! in-situ interface" (Section III-B, Figure 7).

use eth_data::crc::crc32;
use eth_data::error::{DataError, Result};
use eth_data::io::binary;
use eth_data::{Bytes, DataObject};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// Manifest describing a recorded time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    pub name: String,
    pub num_ranks: usize,
    pub num_steps: usize,
    /// Data kind ("points" or "grid"), informational.
    pub kind: String,
    /// CRC-32 of each block file's bytes, step-major
    /// (`index = step * num_ranks + rank`). Empty for series recorded
    /// before checksumming existed — those read back unverified.
    #[serde(default)]
    pub block_crcs: Vec<u32>,
}

impl Manifest {
    /// The recorded checksum for a block, if this series carries them.
    pub fn block_crc(&self, step: usize, rank: usize) -> Option<u32> {
        if rank >= self.num_ranks {
            return None;
        }
        let index = step.checked_mul(self.num_ranks)?.checked_add(rank)?;
        self.block_crcs.get(index).copied()
    }

    /// Reject a shape whose block count overflows, and a checksum list
    /// that is neither absent (a legacy series) nor one entry per block —
    /// a short list would leave the trailing blocks unverified.
    fn validate(&self) -> Result<()> {
        let blocks = self.num_steps.checked_mul(self.num_ranks).ok_or_else(|| {
            DataError::Format(format!(
                "manifest shape overflows: {} steps x {} ranks",
                self.num_steps, self.num_ranks
            ))
        })?;
        if !self.block_crcs.is_empty() && self.block_crcs.len() != blocks {
            return Err(DataError::Format(format!(
                "manifest lists {} block checksums for {blocks} blocks",
                self.block_crcs.len()
            )));
        }
        Ok(())
    }
}

fn step_dir(root: &Path, step: usize) -> PathBuf {
    root.join(format!("step_{step:04}"))
}

fn rank_file(root: &Path, step: usize, rank: usize) -> PathBuf {
    step_dir(root, step).join(format!("rank_{rank:04}.ebd"))
}

fn manifest_path(root: &Path) -> PathBuf {
    root.join("manifest.json")
}

/// Writer for a preliminary run.
pub struct TimeSeriesWriter {
    root: PathBuf,
    manifest: Manifest,
    /// (step, rank) pairs written so far — completeness is checked at close.
    written: Vec<(usize, usize)>,
    /// Checksum per block slot, step-major; recorded as blocks are written.
    crcs: Vec<u32>,
}

impl TimeSeriesWriter {
    /// Create (or truncate) a series directory.
    pub fn create(root: &Path, name: &str, num_ranks: usize, num_steps: usize) -> Result<Self> {
        if num_ranks == 0 || num_steps == 0 {
            return Err(DataError::InvalidArgument(
                "time series needs at least one rank and one step".into(),
            ));
        }
        fs::create_dir_all(root)?;
        Ok(TimeSeriesWriter {
            root: root.to_path_buf(),
            manifest: Manifest {
                name: name.to_string(),
                num_ranks,
                num_steps,
                kind: String::new(),
                block_crcs: Vec::new(),
            },
            written: Vec::new(),
            crcs: vec![0; num_steps * num_ranks],
        })
    }

    /// Write one rank's block for one step.
    pub fn write_block(&mut self, step: usize, rank: usize, data: &DataObject) -> Result<()> {
        if step >= self.manifest.num_steps || rank >= self.manifest.num_ranks {
            return Err(DataError::InvalidArgument(format!(
                "block ({step}, {rank}) outside series shape ({} steps, {} ranks)",
                self.manifest.num_steps, self.manifest.num_ranks
            )));
        }
        fs::create_dir_all(step_dir(&self.root, step))?;
        let bytes = binary::encode(data);
        fs::write(rank_file(&self.root, step, rank), &bytes[..])?;
        self.crcs[step * self.manifest.num_ranks + rank] = crc32(&bytes);
        if self.manifest.kind.is_empty() {
            self.manifest.kind = data.kind().to_string();
        }
        self.written.push((step, rank));
        Ok(())
    }

    /// Finish: verify completeness and write the manifest.
    ///
    /// The manifest is staged to a temp file and renamed into place, so a
    /// crash mid-close leaves either no manifest (series unreadable,
    /// re-record) or a complete one — never a torn manifest.
    pub fn close(mut self) -> Result<Manifest> {
        let expect = self.manifest.num_steps * self.manifest.num_ranks;
        let mut seen = vec![false; expect];
        for (s, r) in &self.written {
            seen[s * self.manifest.num_ranks + r] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            let step = missing / self.manifest.num_ranks;
            let rank = missing % self.manifest.num_ranks;
            return Err(DataError::InvalidArgument(format!(
                "series incomplete: block (step {step}, rank {rank}) never written"
            )));
        }
        self.manifest.block_crcs = self.crcs;
        let json = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| DataError::Format(format!("manifest encode: {e}")))?;
        let tmp = self.root.join("manifest.json.tmp");
        fs::write(&tmp, json)?;
        fs::rename(&tmp, manifest_path(&self.root))?;
        Ok(self.manifest)
    }
}

/// Reader over a recorded series.
pub struct TimeSeriesReader {
    root: PathBuf,
    manifest: Manifest,
}

impl TimeSeriesReader {
    /// Open a series directory: read the manifest and check its shape
    /// against its checksum list.
    pub fn open(root: &Path) -> Result<Self> {
        let text = fs::read_to_string(manifest_path(root))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| DataError::Format(format!("manifest decode: {e}")))?;
        manifest.validate()?;
        Ok(TimeSeriesReader {
            root: root.to_path_buf(),
            manifest,
        })
    }

    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Load one rank's block for one step.
    ///
    /// When the manifest carries checksums, the file's bytes are verified
    /// against the recorded CRC **before** decoding; a mismatch is
    /// [`DataError::Corrupt`] naming the block. Legacy series without
    /// checksums still get the in-band trailer check inside
    /// [`binary::decode`].
    pub fn read_block(&self, step: usize, rank: usize) -> Result<DataObject> {
        if step >= self.manifest.num_steps || rank >= self.manifest.num_ranks {
            return Err(DataError::InvalidArgument(format!(
                "block ({step}, {rank}) outside series shape"
            )));
        }
        let bytes = fs::read(rank_file(&self.root, step, rank))?;
        if let Some(expect) = self.manifest.block_crc(step, rank) {
            let got = crc32(&bytes);
            if got != expect {
                return Err(DataError::Corrupt(format!(
                    "block (step {step}, rank {rank}) checksum mismatch: \
                     manifest {expect:#010x}, file {got:#010x}"
                )));
            }
        }
        binary::decode(Bytes::from(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::{PointCloud, Vec3};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eth-sim-ts-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn obj(tag: f32) -> DataObject {
        DataObject::Points(PointCloud::from_positions(vec![Vec3::splat(tag)]))
    }

    #[test]
    fn roundtrip_series() {
        let root = tmp("roundtrip");
        let mut w = TimeSeriesWriter::create(&root, "demo", 2, 3).unwrap();
        for step in 0..3 {
            for rank in 0..2 {
                w.write_block(step, rank, &obj((step * 10 + rank) as f32))
                    .unwrap();
            }
        }
        let manifest = w.close().unwrap();
        assert_eq!(manifest.kind, "points");

        let r = TimeSeriesReader::open(&root).unwrap();
        assert_eq!(r.manifest().num_ranks, 2);
        assert_eq!(r.manifest().num_steps, 3);
        let block = r.read_block(2, 1).unwrap();
        assert_eq!(
            block.as_points().unwrap().positions()[0],
            Vec3::splat(21.0)
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn incomplete_series_rejected_at_close() {
        let root = tmp("incomplete");
        let mut w = TimeSeriesWriter::create(&root, "demo", 2, 2).unwrap();
        w.write_block(0, 0, &obj(0.0)).unwrap();
        w.write_block(0, 1, &obj(1.0)).unwrap();
        w.write_block(1, 0, &obj(2.0)).unwrap();
        // (1, 1) missing
        let err = w.close().unwrap_err();
        assert!(err.to_string().contains("step 1"));
        assert!(err.to_string().contains("rank 1"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn out_of_shape_blocks_rejected() {
        let root = tmp("shape");
        let mut w = TimeSeriesWriter::create(&root, "demo", 2, 2).unwrap();
        assert!(w.write_block(2, 0, &obj(0.0)).is_err());
        assert!(w.write_block(0, 5, &obj(0.0)).is_err());
        let r_err = TimeSeriesReader::open(&root);
        assert!(r_err.is_err(), "no manifest yet");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn zero_shape_rejected() {
        let root = tmp("zero");
        assert!(TimeSeriesWriter::create(&root, "demo", 0, 2).is_err());
        assert!(TimeSeriesWriter::create(&root, "demo", 2, 0).is_err());
    }

    #[test]
    fn flipped_block_byte_is_caught_by_the_manifest_crc() {
        let root = tmp("corrupt");
        let mut w = TimeSeriesWriter::create(&root, "demo", 1, 2).unwrap();
        w.write_block(0, 0, &obj(1.0)).unwrap();
        w.write_block(1, 0, &obj(2.0)).unwrap();
        let manifest = w.close().unwrap();
        assert_eq!(manifest.block_crcs.len(), 2);
        assert!(!root.join("manifest.json.tmp").exists());

        // Flip one byte in the middle of step 1's block on disk.
        let victim = root.join("step_0001").join("rank_0000.ebd");
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();

        let r = TimeSeriesReader::open(&root).unwrap();
        assert!(r.read_block(0, 0).is_ok(), "untouched block still reads");
        let err = r.read_block(1, 0).unwrap_err();
        assert!(
            matches!(err, DataError::Corrupt(_)),
            "expected Corrupt, got: {err}"
        );
        assert!(err.to_string().contains("step 1"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn legacy_manifest_without_checksums_still_reads() {
        let root = tmp("legacy");
        let mut w = TimeSeriesWriter::create(&root, "demo", 1, 1).unwrap();
        w.write_block(0, 0, &obj(3.0)).unwrap();
        w.close().unwrap();

        // Rewrite the manifest the way the pre-checksum format did.
        let manifest_file = root.join("manifest.json");
        let text = fs::read_to_string(&manifest_file).unwrap();
        assert!(text.contains("block_crcs"));
        let legacy = r#"{"name":"demo","num_ranks":1,"num_steps":1,"kind":"points"}"#;
        fs::write(&manifest_file, legacy).unwrap();

        let r = TimeSeriesReader::open(&root).unwrap();
        assert!(r.manifest().block_crcs.is_empty());
        assert_eq!(r.manifest().block_crc(0, 0), None);
        let block = r.read_block(0, 0).unwrap();
        assert_eq!(
            block.as_points().unwrap().positions()[0],
            Vec3::splat(3.0)
        );
        fs::remove_dir_all(&root).ok();
    }

    fn write_manifest(root: &Path, steps: usize, ranks: usize, crcs: usize) {
        let crcs = vec!["7"; crcs].join(",");
        let text = format!(
            r#"{{"name":"m","num_ranks":{ranks},"num_steps":{steps},"kind":"grid","block_crcs":[{crcs}]}}"#
        );
        fs::create_dir_all(root).unwrap();
        fs::write(manifest_path(root), text).unwrap();
    }

    #[test]
    fn manifest_checksum_list_must_cover_every_block() {
        let root = tmp("crc-count");
        for (steps, ranks, crcs, ok) in [
            (3, 2, 6, true),
            (3, 2, 0, true),
            (3, 2, 5, false),
            (3, 2, 7, false),
            (usize::MAX, 2, 0, false),
            (usize::MAX, 2, 1, false),
        ] {
            write_manifest(&root, steps, ranks, crcs);
            let got = TimeSeriesReader::open(&root);
            assert_eq!(got.is_ok(), ok, "{steps} steps, {ranks} ranks, {crcs} crcs");
            if let Err(e) = got {
                assert!(matches!(e, DataError::Format(_)), "{e}");
            }
        }
        fs::remove_dir_all(&root).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn any_manifest_opens_or_errs(
            (steps, ranks, crcs) in (0usize..6, 0usize..6, 0usize..40),
            (huge, pick) in (0usize..usize::MAX, 0u8..4),
            (step, rank) in (0usize..usize::MAX, 0usize..8),
        ) {
            let (steps, ranks) = match pick {
                0 => (huge, ranks),
                1 => (steps, huge),
                _ => (steps, ranks),
            };
            // a manifest built in memory skips `open`'s checks
            let unchecked = Manifest {
                name: "m".into(),
                num_ranks: ranks,
                num_steps: steps,
                kind: "grid".into(),
                block_crcs: vec![7; crcs],
            };
            let _ = unchecked.block_crc(step, rank);
            let root = tmp(&format!("any-{steps}-{ranks}-{crcs}"));
            write_manifest(&root, steps, ranks, crcs);
            // Ok or Err, never a panic — and an open series answers every
            // block question without one either
            if let Ok(r) = TimeSeriesReader::open(&root) {
                let m = r.manifest();
                proptest::prop_assert!(crcs == 0 || Some(crcs) == steps.checked_mul(ranks));
                let _ = m.block_crc(step, rank);
                let _ = m.block_crc(step % steps.max(1), rank);
                let _ = r.read_block(step, rank);
            }
            // the same shape with its checksum list one entry short
            if let Some(blocks @ 2..=64) = steps.checked_mul(ranks) {
                write_manifest(&root, steps, ranks, blocks - 1);
                proptest::prop_assert!(TimeSeriesReader::open(&root).is_err());
            }
            fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn reader_bounds_checked() {
        let root = tmp("bounds");
        let mut w = TimeSeriesWriter::create(&root, "demo", 1, 1).unwrap();
        w.write_block(0, 0, &obj(0.0)).unwrap();
        w.close().unwrap();
        let r = TimeSeriesReader::open(&root).unwrap();
        assert!(r.read_block(1, 0).is_err());
        assert!(r.read_block(0, 1).is_err());
        fs::remove_dir_all(&root).ok();
    }
}
