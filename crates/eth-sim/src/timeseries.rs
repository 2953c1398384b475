//! The "preliminary run": one time series of per-step, per-rank blocks,
//! held in memory up to a budget and on disk past it.
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
//!   manifest.json                   # name, ranks, steps, kind, block CRCs
//!   step_0000/rank_0000.ebd
//!   step_0000/rank_0001.ebd
//!   ...
//! ```
//!
//! Every rank's block is a self-contained dataset, so "each parallel
//! process of the proxy is able to load the data that it will pass to the
//! in-situ interface" (Section III-B, Figure 7).
//!
//! [`TimeSeries`] is that series and the staging store over it, keyed by
//! `(step, rank)`. Blocks stay resident up to a memory budget; when one
//! more would exceed it, the least-recently-used resident block moves to
//! its file in the layout above, and a block larger than the whole budget
//! goes there directly. A block on disk streams back on access and stays
//! resident again only if it fits. The store holds each on-disk block's
//! CRC-32 and verifies the file against it before decoding, so a flipped
//! byte is [`DataError::Corrupt`] naming the block; [`TimeSeries::close`]
//! writes the CRCs to the manifest. Three uses, one type:
//!
//! * **staging** ([`TimeSeries::new`]): no budget keeps every block
//!   resident and touches no disk. With a budget the files live in a
//!   private directory (`series-<pid>-<seq>`, under an explicit spill
//!   directory or the system temp directory) removed on drop;
//! * **recording** ([`TimeSeries::create`]): a budget of zero writes every
//!   block to `root` as it is inserted, and `close` adds the manifest;
//! * **replay** ([`TimeSeries::open`]): a recorded series, every block on
//!   disk and checked against the manifest's CRC.
//!
//! **Accounting invariant.** After every `insert`/`get`, the resident
//! byte total (each block's exact encoded length) is ≤ the budget, not
//! even transiently above it. Spill order is a pure function of the
//! insert/access sequence and the budget, so a budgeted campaign's
//! pressure counters replay exactly. A [`StagingAccountant`] aggregates
//! every store it was handed to, so whoever owns a set of stores (a
//! campaign's caches, `eth serve`) observes its own memory pressure and
//! nobody else's.
//!
//! **Crash hygiene.** Block files and the manifest are written
//! temp-then-rename, so a torn write is never read back. A store on an
//! explicit spill directory removes the sibling series directories whose
//! process is dead before it starts.

use eth_data::crc::crc32;
use eth_data::error::{DataError, Result};
use eth_data::io::binary;
use eth_data::DataObject;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Uniquifier for private series directories.
static SERIES_SEQ: AtomicU64 = AtomicU64::new(0);

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

fn manifest_path(root: &Path) -> PathBuf {
    root.join("manifest.json")
}

/// Byte totals over every [`TimeSeries`] built with (a clone of) this
/// handle. This is the backpressure signal: sweep admission and service
/// shedding compare the owner's resident total against a policy's
/// watermarks. Statistics only — the counters publish no other data.
#[derive(Debug, Clone, Default)]
pub struct StagingAccountant(Arc<Totals>);

#[derive(Debug, Default)]
struct Totals {
    resident: AtomicU64,
    spilled: AtomicU64,
}

impl StagingAccountant {
    pub fn new() -> StagingAccountant {
        StagingAccountant::default()
    }

    /// Bytes currently resident, summed over the live stores on this handle.
    pub fn resident_bytes(&self) -> u64 {
        self.0.resident.load(Ordering::Relaxed)
    }

    /// Cumulative bytes the stores on this handle spilled to disk.
    pub fn spilled_bytes(&self) -> u64 {
        self.0.spilled.load(Ordering::Relaxed)
    }
}

/// Byte-accountant counters for one store. All sizes are exact encoded
/// lengths ([`binary::encoded_len`]), so they are deterministic for a
/// given insert/access sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagingStats {
    /// Bytes currently held in memory.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the store's life.
    pub peak_resident_bytes: u64,
    /// Blocks written to disk (cumulative; a block can spill repeatedly).
    pub spills: u64,
    /// Bytes written to block files (cumulative, encoded size).
    pub spilled_bytes: u64,
    /// Blocks streamed back from disk.
    pub reloads: u64,
    /// Bytes streamed back from disk (cumulative, encoded size).
    pub reloaded_bytes: u64,
    /// Total `insert` calls.
    pub inserts: u64,
}

enum Slot {
    Vacant,
    Resident {
        obj: Arc<DataObject>,
        bytes: u64,
        last_use: u64,
    },
    /// In its series file; `crc` is the store's checksum of its bytes.
    OnDisk {
        crc: u32,
    },
}

struct Inner {
    /// Step-major (`step * num_ranks + rank`), grown on insert.
    slots: Vec<Slot>,
    kind: String,
    clock: u64,
    stats: StagingStats,
}

/// A time series of `(step, rank)` blocks: resident up to a memory budget,
/// the rest in the series layout on disk (see the module docs).
pub struct TimeSeries {
    root: PathBuf,
    /// A private directory this store removes on drop.
    owned: bool,
    /// Opened from disk: a block this store holds no slot for is in its
    /// file, unverified (a series recorded before checksums).
    recorded: bool,
    name: String,
    num_ranks: usize,
    num_steps: usize,
    budget: Option<u64>,
    accountant: StagingAccountant,
    inner: Mutex<Inner>,
}

impl TimeSeries {
    /// A staging series of `num_steps × num_ranks` blocks holding at most
    /// `budget` encoded bytes resident (`None`: everything, and no disk is
    /// touched). Spilled blocks go to a private series directory under
    /// `spill_dir` — first swept of the series a dead process left there —
    /// or under the system temp directory. Resident and spilled bytes are
    /// added to `accountant`'s totals for as long as the store lives.
    pub fn new(
        num_ranks: usize,
        num_steps: usize,
        budget: Option<u64>,
        spill_dir: Option<&Path>,
        accountant: StagingAccountant,
    ) -> Result<TimeSeries> {
        let seq = SERIES_SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let root = match spill_dir {
            Some(dir) => {
                sweep_dead_series(dir);
                dir.join(format!("series-{pid}-{seq}"))
            }
            None => std::env::temp_dir().join(format!("eth-series-{pid}-{seq}")),
        };
        let mut series = TimeSeries::build(
            root,
            String::new(),
            num_ranks,
            num_steps,
            budget,
            accountant,
        )?;
        series.owned = true;
        Ok(series)
    }

    /// Record a preliminary run at `root`: every inserted block is written
    /// to its file at once (a budget of zero), and [`TimeSeries::close`]
    /// completes the series with its manifest.
    pub fn create(
        root: &Path,
        name: &str,
        num_ranks: usize,
        num_steps: usize,
    ) -> Result<TimeSeries> {
        let series = TimeSeries::build(
            root.to_path_buf(),
            name.to_string(),
            num_ranks,
            num_steps,
            Some(0),
            StagingAccountant::new(),
        )?;
        fs::create_dir_all(root)?;
        Ok(series)
    }

    /// Open a recorded series: read the manifest and check its shape
    /// against its checksum list. Every block stays on disk and is
    /// verified against the manifest's CRC on each read.
    pub fn open(root: &Path) -> Result<TimeSeries> {
        let text = fs::read_to_string(manifest_path(root))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| DataError::Format(format!("manifest decode: {e}")))?;
        manifest.validate()?;
        let mut series = TimeSeries::build(
            root.to_path_buf(),
            manifest.name,
            manifest.num_ranks,
            manifest.num_steps,
            Some(0),
            StagingAccountant::new(),
        )?;
        series.recorded = true;
        series
            .inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .slots = manifest
            .block_crcs
            .into_iter()
            .map(|crc| Slot::OnDisk { crc })
            .collect();
        Ok(series)
    }

    fn build(
        root: PathBuf,
        name: String,
        num_ranks: usize,
        num_steps: usize,
        budget: Option<u64>,
        accountant: StagingAccountant,
    ) -> Result<TimeSeries> {
        if num_ranks == 0 || num_steps == 0 || num_ranks.checked_mul(num_steps).is_none() {
            return Err(DataError::InvalidArgument(format!(
                "time series needs at least one rank and one step, and a block count \
                 that fits in memory: {num_steps} steps x {num_ranks} ranks"
            )));
        }
        Ok(TimeSeries {
            root,
            owned: false,
            recorded: false,
            name,
            num_ranks,
            num_steps,
            budget,
            accountant,
            inner: Mutex::new(Inner {
                slots: Vec::new(),
                kind: String::new(),
                clock: 0,
                stats: StagingStats::default(),
            }),
        })
    }

    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    pub fn num_steps(&self) -> usize {
        self.num_steps
    }

    /// The series directory (for a staging store: created on first spill).
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn index(&self, step: usize, rank: usize) -> Result<usize> {
        if step >= self.num_steps || rank >= self.num_ranks {
            return Err(DataError::InvalidArgument(format!(
                "block ({step}, {rank}) outside series shape ({} steps, {} ranks)",
                self.num_steps, self.num_ranks
            )));
        }
        Ok(step * self.num_ranks + rank)
    }

    fn block_path(&self, index: usize) -> PathBuf {
        let (step, rank) = (index / self.num_ranks, index % self.num_ranks);
        self.root
            .join(format!("step_{step:04}"))
            .join(format!("rank_{rank:04}.ebd"))
    }

    /// Stage block `(step, rank)`, replacing any previous occupant.
    /// Least-recently-used blocks are spilled *before* admission, so the
    /// resident total never exceeds the budget; a block bigger than the
    /// whole budget goes straight to its file.
    pub fn insert(&self, step: usize, rank: usize, obj: DataObject) -> Result<()> {
        let index = self.index(step, rank)?;
        let bytes = binary::encoded_len(&obj) as u64;
        let mut inner = self.lock();
        if inner.slots.len() <= index {
            inner.slots.resize_with(index + 1, || Slot::Vacant);
        }
        self.evict_slot(&mut inner, index);
        inner.stats.inserts += 1;
        inner.clock += 1;
        if inner.kind.is_empty() {
            inner.kind = obj.kind().to_string();
        }
        if self.budget.is_some_and(|b| bytes > b) {
            let crc = self.write_block(index, &obj)?;
            inner.slots[index] = Slot::OnDisk { crc };
            inner.stats.spills += 1;
            inner.stats.spilled_bytes += bytes;
            self.accountant
                .0
                .spilled
                .fetch_add(bytes, Ordering::Relaxed);
            return Ok(());
        }
        self.make_room(&mut inner, bytes)?;
        let now = inner.clock;
        self.admit(&mut inner, index, Arc::new(obj), bytes, now);
        Ok(())
    }

    /// A handle to block `(step, rank)`. A resident block is shared, not
    /// copied: the store's lock is held for a reference count. A block on
    /// disk is read back and checked against the store's CRC first (a
    /// mismatch is [`DataError::Corrupt`], a missing file the `NotFound`
    /// I/O error), then re-admitted only if it fits after evicting colder
    /// blocks. The store accounts what *it* holds, so a handle that
    /// outlives an eviction is the holder's memory.
    pub fn get(&self, step: usize, rank: usize) -> Result<Arc<DataObject>> {
        let index = self.index(step, rank)?;
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        let crc = match inner.slots.get_mut(index) {
            Some(Slot::Resident { obj, last_use, .. }) => {
                *last_use = now;
                return Ok(Arc::clone(obj));
            }
            Some(Slot::OnDisk { crc }) => Some(*crc),
            _ if self.recorded => None,
            _ => {
                return Err(DataError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("block (step {step}, rank {rank}) was never staged"),
                )))
            }
        };
        let path = self.block_path(index);
        // aligned, so the decoded block views the file's bytes
        let raw = binary::read_bytes(&path)?;
        if let Some(expect) = crc {
            let got = crc32(&raw);
            if got != expect {
                return Err(DataError::Corrupt(format!(
                    "block (step {step}, rank {rank}) checksum mismatch: \
                     recorded {expect:#010x}, file {got:#010x}"
                )));
            }
        }
        let bytes = raw.len() as u64;
        let obj = Arc::new(binary::decode(raw)?);
        inner.stats.reloads += 1;
        inner.stats.reloaded_bytes += bytes;
        if self.budget.is_none_or(|b| bytes <= b) {
            self.make_room(&mut inner, bytes)?;
            let _ = fs::remove_file(&path);
            self.admit(&mut inner, index, Arc::clone(&obj), bytes, now);
        }
        Ok(obj)
    }

    /// Finish a recording: move every resident block to its file, check
    /// that every block is there, and write the manifest with the store's
    /// checksums. The manifest is staged to a temp file and renamed into
    /// place, so a crash mid-close leaves either no manifest (series
    /// unreadable, re-record) or a complete one — never a torn one.
    pub fn close(&self) -> Result<Manifest> {
        self.shrink_to(0)?;
        let inner = self.lock();
        let mut block_crcs = Vec::with_capacity(self.num_steps * self.num_ranks);
        for index in 0..self.num_steps * self.num_ranks {
            match inner.slots.get(index) {
                Some(Slot::OnDisk { crc }) => block_crcs.push(*crc),
                _ => {
                    return Err(DataError::InvalidArgument(format!(
                        "series incomplete: block (step {}, rank {}) never written",
                        index / self.num_ranks,
                        index % self.num_ranks
                    )))
                }
            }
        }
        let manifest = Manifest {
            name: self.name.clone(),
            num_ranks: self.num_ranks,
            num_steps: self.num_steps,
            kind: inner.kind.clone(),
            block_crcs,
        };
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| DataError::Format(format!("manifest encode: {e}")))?;
        let tmp = self.root.join("manifest.json.tmp");
        fs::write(&tmp, json)?;
        fs::rename(&tmp, manifest_path(&self.root))?;
        Ok(manifest)
    }

    /// Snapshot of the byte-accountant counters.
    pub fn stats(&self) -> StagingStats {
        self.lock().stats
    }

    /// Spill least-recently-used blocks until the resident total is ≤
    /// `target`.
    pub fn shrink_to(&self, target: u64) -> Result<()> {
        let mut inner = self.lock();
        while inner.stats.resident_bytes > target {
            if !self.spill_coldest(&mut inner)? {
                break;
            }
        }
        Ok(())
    }

    /// Panic if the accounting invariant (resident ≤ budget) is broken.
    /// Cheap: reads one counter. Tests and the pressure bench call this
    /// after every phase.
    pub fn assert_within_budget(&self) {
        if let Some(budget) = self.budget {
            let resident = self.stats().resident_bytes;
            assert!(
                resident <= budget,
                "staging byte-accountant violated: {resident} resident > budget {budget}"
            );
        }
    }

    fn admit(&self, inner: &mut Inner, index: usize, obj: Arc<DataObject>, bytes: u64, now: u64) {
        inner.slots[index] = Slot::Resident {
            obj,
            bytes,
            last_use: now,
        };
        inner.stats.resident_bytes += bytes;
        inner.stats.peak_resident_bytes = inner
            .stats
            .peak_resident_bytes
            .max(inner.stats.resident_bytes);
        self.accountant
            .0
            .resident
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Spill least-recently-used blocks until `incoming` more bytes fit
    /// under the budget.
    fn make_room(&self, inner: &mut Inner, incoming: u64) -> Result<()> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        while inner.stats.resident_bytes + incoming > budget {
            if !self.spill_coldest(inner)? {
                break;
            }
        }
        Ok(())
    }

    /// Move the least-recently-used resident block to its file. Returns
    /// false when nothing is left to spill.
    fn spill_coldest(&self, inner: &mut Inner) -> Result<bool> {
        let coldest = inner
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Resident { last_use, .. } => Some((*last_use, i)),
                _ => None,
            })
            .min();
        let Some((_, index)) = coldest else {
            return Ok(false);
        };
        let Slot::Resident { obj, bytes, .. } = &inner.slots[index] else {
            unreachable!("the coldest slot is resident")
        };
        let bytes = *bytes;
        let crc = self.write_block(index, obj)?;
        inner.slots[index] = Slot::OnDisk { crc };
        inner.stats.resident_bytes -= bytes;
        inner.stats.spills += 1;
        inner.stats.spilled_bytes += bytes;
        self.accountant
            .0
            .resident
            .fetch_sub(bytes, Ordering::Relaxed);
        self.accountant
            .0
            .spilled
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(true)
    }

    /// Write one block's file temp-then-rename and return the CRC of its
    /// bytes.
    fn write_block(&self, index: usize, obj: &DataObject) -> Result<u32> {
        let path = self.block_path(index);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let bytes = binary::encode(obj);
        let tmp = path.with_extension("ebd.tmp");
        fs::write(&tmp, &bytes[..])?;
        fs::rename(&tmp, &path)?;
        Ok(crc32(&bytes))
    }

    /// Drop any previous occupant of `index`, reclaiming its bytes or its
    /// file.
    fn evict_slot(&self, inner: &mut Inner, index: usize) {
        match std::mem::replace(&mut inner.slots[index], Slot::Vacant) {
            Slot::Resident { bytes, .. } => {
                inner.stats.resident_bytes -= bytes;
                self.accountant
                    .0
                    .resident
                    .fetch_sub(bytes, Ordering::Relaxed);
            }
            Slot::OnDisk { .. } => {
                let _ = fs::remove_file(self.block_path(index));
            }
            Slot::Vacant => {}
        }
    }
}

impl Drop for TimeSeries {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.accountant
            .0
            .resident
            .fetch_sub(inner.stats.resident_bytes, Ordering::Relaxed);
        if self.owned && inner.stats.spills > 0 {
            let _ = fs::remove_dir_all(&self.root);
        }
    }
}

/// Remove the series directories under a shared spill directory whose
/// process is dead — the leftovers of a crashed predecessor. A live
/// process's series (this one's included) is never touched, and nothing
/// else in the directory is ours.
fn sweep_dead_series(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|name| name.strip_prefix("series-"))
            .and_then(|rest| rest.split('-').next())
            .and_then(|pid| pid.parse::<u32>().ok());
        if pid.is_some_and(|pid| pid != std::process::id() && !process_alive(pid)) {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}

/// Whether process `pid` is running. A zombie is dead: a SIGKILL'd
/// process whose parent died without reaping it (`timeout -s KILL` kills
/// both) lingers in `/proc` but holds nothing.
#[cfg(target_os = "linux")]
pub fn process_alive(pid: u32) -> bool {
    // The state field of `/proc/{pid}/stat` is the first token after the
    // parenthesized comm (which may itself contain parens, so split at the
    // *last* ')').
    match fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => match stat.rfind(')') {
            Some(close) => {
                let state = stat[close + 1..].trim_start().chars().next();
                !matches!(state, Some('Z') | Some('X') | None)
            }
            None => true, // unparseable but present: assume alive
        },
        Err(_) => false,
    }
}

/// Whether process `pid` is running. No portable probe: assume it is
/// (keeping a possibly-stale directory or lock is safe; taking a live
/// one is not).
#[cfg(not(target_os = "linux"))]
pub fn process_alive(_pid: u32) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::{Attribute, PointCloud, Vec3};
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eth-sim-ts-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn obj(tag: f32) -> DataObject {
        DataObject::Points(PointCloud::from_positions(vec![Vec3::splat(tag)]))
    }

    /// A seeded block of `n` points with a density attribute.
    fn block(seed: u64, n: usize) -> DataObject {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / 16_777_216.0
        };
        let pos: Vec<Vec3> = (0..n).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect();
        let mut c = PointCloud::from_positions(pos);
        c.set_attribute(
            "density",
            Attribute::Scalar((0..n).map(|i| i as f32 * 0.25).collect()),
        )
        .unwrap();
        DataObject::Points(c)
    }

    fn encoded(obj: &DataObject) -> Vec<u8> {
        binary::encode(obj).as_ref().to_vec()
    }

    /// A staging store of `steps` single-rank blocks.
    fn store(steps: usize, budget: Option<u64>) -> TimeSeries {
        TimeSeries::new(1, steps, budget, None, StagingAccountant::new()).unwrap()
    }

    #[test]
    fn roundtrip_series() {
        let root = tmp("roundtrip");
        let w = TimeSeries::create(&root, "demo", 2, 3).unwrap();
        for step in 0..3 {
            for rank in 0..2 {
                w.insert(step, rank, obj((step * 10 + rank) as f32))
                    .unwrap();
            }
        }
        let manifest = w.close().unwrap();
        assert_eq!(manifest.kind, "points");
        assert_eq!(manifest.block_crcs.len(), 6);

        let r = TimeSeries::open(&root).unwrap();
        assert_eq!(r.num_ranks(), 2);
        assert_eq!(r.num_steps(), 3);
        let block = r.get(2, 1).unwrap();
        assert_eq!(block.as_points().unwrap().positions()[0], Vec3::splat(21.0));
        // a replayed block streams through: the recording stays on disk
        assert_eq!(r.stats().resident_bytes, 0);
        assert!(root.join("step_0002").join("rank_0001.ebd").exists());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn incomplete_series_rejected_at_close() {
        let root = tmp("incomplete");
        let w = TimeSeries::create(&root, "demo", 2, 2).unwrap();
        w.insert(0, 0, obj(0.0)).unwrap();
        w.insert(0, 1, obj(1.0)).unwrap();
        w.insert(1, 0, obj(2.0)).unwrap();
        // (1, 1) missing
        let err = w.close().unwrap_err();
        assert!(err.to_string().contains("step 1"));
        assert!(err.to_string().contains("rank 1"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn out_of_shape_blocks_rejected() {
        let root = tmp("shape");
        let w = TimeSeries::create(&root, "demo", 2, 2).unwrap();
        assert!(w.insert(2, 0, obj(0.0)).is_err());
        assert!(w.insert(0, 5, obj(0.0)).is_err());
        assert!(TimeSeries::open(&root).is_err(), "no manifest yet");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn zero_shape_rejected() {
        let root = tmp("zero");
        assert!(TimeSeries::create(&root, "demo", 0, 2).is_err());
        assert!(TimeSeries::create(&root, "demo", 2, 0).is_err());
        assert!(TimeSeries::new(2, 0, None, None, StagingAccountant::new()).is_err());
    }

    #[test]
    fn flipped_block_byte_is_caught_by_the_manifest_crc() {
        let root = tmp("corrupt");
        let w = TimeSeries::create(&root, "demo", 1, 2).unwrap();
        w.insert(0, 0, obj(1.0)).unwrap();
        w.insert(1, 0, obj(2.0)).unwrap();
        w.close().unwrap();
        assert!(!root.join("manifest.json.tmp").exists());

        // Flip one byte in the middle of step 1's block on disk.
        let victim = root.join("step_0001").join("rank_0000.ebd");
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();

        let r = TimeSeries::open(&root).unwrap();
        assert!(r.get(0, 0).is_ok(), "untouched block still reads");
        let err = r.get(1, 0).unwrap_err();
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
        let w = TimeSeries::create(&root, "demo", 1, 1).unwrap();
        w.insert(0, 0, obj(3.0)).unwrap();
        w.close().unwrap();

        // Rewrite the manifest the way the pre-checksum format did.
        let manifest_file = root.join("manifest.json");
        let text = fs::read_to_string(&manifest_file).unwrap();
        assert!(text.contains("block_crcs"));
        let legacy = r#"{"name":"demo","num_ranks":1,"num_steps":1,"kind":"points"}"#;
        fs::write(&manifest_file, legacy).unwrap();

        let r = TimeSeries::open(&root).unwrap();
        let block = r.get(0, 0).unwrap();
        assert_eq!(block.as_points().unwrap().positions()[0], Vec3::splat(3.0));
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
            let got = TimeSeries::open(&root);
            assert_eq!(got.is_ok(), ok, "{steps} steps, {ranks} ranks, {crcs} crcs");
            if let Err(e) = got {
                assert!(matches!(e, DataError::Format(_)), "{e}");
            }
        }
        fs::remove_dir_all(&root).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
            let root = tmp(&format!("any-{steps}-{ranks}-{crcs}"));
            write_manifest(&root, steps, ranks, crcs);
            // Ok or Err, never a panic — and an open series answers every
            // block question without one either
            if let Ok(r) = TimeSeries::open(&root) {
                prop_assert!(crcs == 0 || Some(crcs) == steps.checked_mul(ranks));
                let _ = r.get(step, rank);
                let _ = r.get(step % steps.max(1), rank);
            }
            // the same shape with its checksum list one entry short
            if let Some(blocks @ 2..=64) = steps.checked_mul(ranks) {
                write_manifest(&root, steps, ranks, blocks - 1);
                prop_assert!(TimeSeries::open(&root).is_err());
            }
            fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn reader_bounds_checked() {
        let root = tmp("bounds");
        let w = TimeSeries::create(&root, "demo", 1, 1).unwrap();
        w.insert(0, 0, obj(0.0)).unwrap();
        w.close().unwrap();
        let r = TimeSeries::open(&root).unwrap();
        assert!(r.get(1, 0).is_err());
        assert!(r.get(0, 1).is_err());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unbudgeted_series_creates_no_directory() {
        let series = store(4, None);
        for step in 0..4 {
            series.insert(step, 0, block(step as u64, 100)).unwrap();
        }
        for step in 0..4 {
            assert_eq!(
                encoded(&series.get(step, 0).unwrap()),
                encoded(&block(step as u64, 100))
            );
        }
        let stats = series.stats();
        assert_eq!((stats.spills, stats.reloads), (0, 0));
        assert!(stats.resident_bytes > 0);
        assert!(
            !series.root().exists(),
            "an all-resident series touched the disk"
        );
        // two fetches of a resident block share one allocation
        assert!(Arc::ptr_eq(
            &series.get(1, 0).unwrap(),
            &series.get(1, 0).unwrap()
        ));
    }

    #[test]
    fn over_budget_blocks_spill_lru_and_stream_back_byte_identical() {
        let one = binary::encoded_len(&block(0, 200)) as u64;
        // room for two blocks: the third insert must spill the coldest
        let series = store(4, Some(one * 2 + one / 2));
        for step in 0..4 {
            series.insert(step, 0, block(step as u64, 200)).unwrap();
            series.assert_within_budget();
        }
        let stats = series.stats();
        assert!(stats.spills >= 2, "spills: {}", stats.spills);
        assert!(stats.peak_resident_bytes <= one * 2 + one / 2);
        // spilled blocks sit in the series layout
        assert!(series
            .root()
            .join("step_0000")
            .join("rank_0000.ebd")
            .exists());
        // every block — resident or spilled — reads back bit-exactly
        for step in 0..4 {
            let got = series.get(step, 0).unwrap();
            assert_eq!(
                encoded(&got),
                encoded(&block(step as u64, 200)),
                "block {step}"
            );
            series.assert_within_budget();
        }
        assert!(series.stats().reloads >= 2);
        let root = series.root().to_path_buf();
        drop(series);
        assert!(
            !root.exists(),
            "a private series directory outlived its store"
        );
    }

    #[test]
    fn block_larger_than_budget_streams_through_without_admission() {
        let big = block(7, 500);
        let bytes = binary::encoded_len(&big) as u64;
        let series = store(1, Some(bytes / 2));
        series.insert(0, 0, big.clone()).unwrap();
        series.assert_within_budget();
        assert_eq!(
            series.stats().resident_bytes,
            0,
            "oversized block must not stay resident"
        );
        for _ in 0..2 {
            assert_eq!(encoded(&series.get(0, 0).unwrap()), encoded(&big));
            series.assert_within_budget();
        }
    }

    #[test]
    fn accountant_tracks_its_own_stores_and_releases_on_drop() {
        let ours = StagingAccountant::new();
        let one = binary::encoded_len(&block(1, 300)) as u64;
        let series = TimeSeries::new(1, 2, Some(one), None, ours.clone()).unwrap();
        let unrelated = store(1, None);
        unrelated.insert(0, 0, block(9, 300)).unwrap();
        series.insert(0, 0, block(1, 300)).unwrap();
        assert_eq!(ours.resident_bytes(), one, "someone else's store leaked in");
        series.insert(1, 0, block(2, 300)).unwrap(); // evicts block 0
        assert_eq!(ours.resident_bytes(), one);
        assert_eq!(ours.spilled_bytes(), one);
        drop(series);
        assert_eq!(ours.resident_bytes(), 0);
        assert_eq!(ours.spilled_bytes(), one, "spilled is cumulative");
    }

    #[test]
    fn reinserting_a_block_reclaims_the_old_occupant() {
        let series = store(1, None);
        series.insert(0, 0, block(1, 400)).unwrap();
        let after_first = series.stats().resident_bytes;
        series.insert(0, 0, block(2, 400)).unwrap();
        assert_eq!(series.stats().resident_bytes, after_first);
        assert_eq!(encoded(&series.get(0, 0).unwrap()), encoded(&block(2, 400)));
    }

    /// The pid of a process that has exited and been reaped.
    fn dead_pid() -> u32 {
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn child");
        let pid = child.id();
        child.wait().unwrap();
        pid
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn explicit_spill_dir_is_swept_of_dead_series_only() {
        let dir = tmp("sweep");
        let dead = dir.join(format!("series-{}-0", dead_pid()));
        fs::create_dir_all(dead.join("step_0000")).unwrap();
        fs::write(
            dead.join("step_0000").join("rank_0000.ebd"),
            b"stale garbage",
        )
        .unwrap();
        fs::write(
            dead.join("step_0000").join("rank_0001.ebd.tmp"),
            b"torn spill",
        )
        .unwrap();
        let live = dir.join(format!("series-{}-999999", std::process::id()));
        fs::create_dir_all(&live).unwrap();
        fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();

        let series = TimeSeries::new(1, 1, Some(1), Some(&dir), StagingAccountant::new()).unwrap();
        assert!(!dead.exists(), "a dead process's series must be swept");
        assert!(
            live.exists(),
            "a live process's series is not ours to sweep"
        );
        assert!(
            dir.join("unrelated.txt").exists(),
            "non-series files are not ours"
        );
        series.insert(0, 0, block(3, 100)).unwrap();
        assert!(series.root().starts_with(&dir));
        assert_eq!(encoded(&series.get(0, 0).unwrap()), encoded(&block(3, 100)));
        drop(series);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stores_sharing_a_spill_dir_keep_their_own_blocks() {
        // Two stage keys on one explicit spill directory, every block on
        // disk: neither store may delete or overwrite the other's files.
        let dir = tmp("shared");
        let make = || TimeSeries::new(2, 3, Some(1), Some(&dir), StagingAccountant::new()).unwrap();
        let (a, b) = (make(), make());
        let want = |store: u64, step: usize, rank: usize| {
            encoded(&block(
                store << 16 | (step * 2 + rank) as u64,
                100 + 20 * store as usize,
            ))
        };
        let check = |step: usize, rank: usize| {
            assert_eq!(
                encoded(&a.get(step, rank).unwrap()),
                want(1, step, rank),
                "a ({step}, {rank})"
            );
            assert_eq!(
                encoded(&b.get(step, rank).unwrap()),
                want(2, step, rank),
                "b ({step}, {rank})"
            );
        };
        for step in 0..3 {
            for rank in 0..2 {
                for (id, store) in [(1, &a), (2, &b)] {
                    let seed = id << 16 | (step * 2 + rank) as u64;
                    store
                        .insert(step, rank, block(seed, 100 + 20 * id as usize))
                        .unwrap();
                }
                check(step, rank);
                check(0, 0);
            }
        }
        // a third store on the same directory sweeps neither
        let c = make();
        for step in 0..3 {
            for rank in 0..2 {
                check(step, rank);
            }
        }
        drop((a, b, c));
        fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any interleaving of stage -> spill -> reload under a shrinking
        /// budget yields byte-identical staged blocks, with the resident
        /// accountant never exceeding the budget in force.
        #[test]
        fn any_interleaving_under_shrinking_budget_is_byte_identical(
            ops in proptest::collection::vec((0usize..6, 0u8..3), 1..40),
            start_budget in 1u64..5,
        ) {
            let one = binary::encoded_len(&block(0, 150)) as u64;
            // budget shrinks as the op sequence progresses: generous ->
            // one block -> smaller than any block
            let mut budget = start_budget * one;
            let mut series = store(6, Some(budget));
            let mut staged: Vec<Option<u64>> = vec![None; 6];
            for (n, (step, op)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        let seed = (n as u64) << 8 | step as u64;
                        series.insert(step, 0, block(seed, 150)).unwrap();
                        staged[step] = Some(seed);
                    }
                    1 => {
                        if let Some(seed) = staged[step] {
                            let got = series.get(step, 0).unwrap();
                            prop_assert_eq!(encoded(&got), encoded(&block(seed, 150)));
                        }
                    }
                    _ => {
                        // shrink the budget and rebuild the store around
                        // the surviving blocks (a rescale under pressure)
                        budget = (budget / 2).max(1);
                        let next = store(6, Some(budget));
                        for (i, seed) in staged.iter().enumerate() {
                            if let Some(seed) = seed {
                                next.insert(i, 0, (*series.get(i, 0).unwrap()).clone()).unwrap();
                                prop_assert_eq!(
                                    encoded(&next.get(i, 0).unwrap()),
                                    encoded(&block(*seed, 150))
                                );
                            }
                        }
                        series = next;
                    }
                }
                series.assert_within_budget();
            }
            // final sweep: everything staged reads back bit-exactly
            for (i, seed) in staged.iter().enumerate() {
                if let Some(seed) = seed {
                    prop_assert_eq!(encoded(&series.get(i, 0).unwrap()), encoded(&block(*seed, 150)));
                }
            }
        }
    }
}
