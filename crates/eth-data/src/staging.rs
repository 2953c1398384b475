//! Budgeted block staging with least-recently-used spill to disk.
//!
//! The paper ran 0.25–1B particles across 400 nodes; a single box runs
//! out of RAM long before that. [`BlockStore`] is the byte-accounted
//! staging layer that closes the gap: staged blocks live in memory up to
//! a configurable budget, the least-recently-used block is spilled to a
//! compressed on-disk chunk when the budget would be exceeded, and a
//! spilled block streams back transparently on access. Spill chunks use
//! the **lossless** codec ([`crate::compress::Codec::Lossless`], the
//! CRC-trailed `EBD2` binary format) so a replay through the store is
//! byte-identical to an unbudgeted run — lossy quantization is a wire
//! choice, never a staging one.
//!
//! **Accounting invariant.** After every `insert`/`get`, the resident
//! byte total (measured as each block's exact encoded length) is ≤ the
//! budget. A block larger than the whole budget lives on disk and is
//! decoded straight through on access without being re-admitted.
//!
//! **Crash hygiene.** Chunks are written temp-then-rename, so a torn
//! spill is never read back (decode would refuse the CRC anyway). A
//! store pointed at an explicit spill directory sweeps stale
//! `block_*.ebd`/`*.tmp` chunks left by a dead process before reusing
//! the directory; anonymous stores use a fresh per-process temp
//! directory removed on drop.
//!
//! **Determinism.** Spill order is a pure function of the insert/access
//! sequence and the budget — no timers, no randomness — so a budgeted
//! campaign's pressure counters replay exactly.
//!
//! A [`StagingAccountant`] handle aggregates every store it was handed
//! to, so whoever owns a set of stores (a campaign's caches, `eth serve`)
//! can observe *its own* memory pressure without holding a reference to
//! each store — and without reading anyone else's.

use crate::compress::Codec;
use crate::dataset::DataObject;
use crate::error::{DataError, Result};
use crate::io::binary;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Uniquifier for anonymous spill directories.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Byte totals over every [`BlockStore`] built with (a clone of) this
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
    /// Bytes written to spill chunks (cumulative, encoded size).
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
    Spilled {
        path: PathBuf,
        bytes: u64,
    },
}

struct Inner {
    slots: Vec<Slot>,
    clock: u64,
    stats: StagingStats,
}

/// A bounded-memory staging area for indexed data blocks.
pub struct BlockStore {
    accountant: StagingAccountant,
    budget: Option<u64>,
    dir: PathBuf,
    owns_dir: bool,
    inner: Mutex<Inner>,
}

impl BlockStore {
    /// An unbounded in-memory store (no budget: nothing ever spills).
    pub fn unbounded() -> BlockStore {
        BlockStore::new(None, None)
    }

    /// A store holding at most `budget` encoded bytes resident, spilling
    /// to `spill_dir` (or a fresh per-process temp directory when
    /// `None`). An explicit directory is swept of stale chunks first —
    /// the torn-spill leftovers of a crashed predecessor. The store
    /// accounts to itself; see [`BlockStore::accounted`].
    pub fn new(budget: Option<u64>, spill_dir: Option<PathBuf>) -> BlockStore {
        BlockStore::accounted(budget, spill_dir, StagingAccountant::new())
    }

    /// [`BlockStore::new`], with the store's resident and spilled bytes
    /// added to `accountant`'s totals for as long as the store lives.
    pub fn accounted(
        budget: Option<u64>,
        spill_dir: Option<PathBuf>,
        accountant: StagingAccountant,
    ) -> BlockStore {
        let (dir, owns_dir) = match spill_dir {
            Some(d) => {
                sweep_stale_chunks(&d);
                (d, false)
            }
            None => (
                std::env::temp_dir().join(format!(
                    "eth-spill-{}-{}",
                    std::process::id(),
                    STORE_SEQ.fetch_add(1, Ordering::Relaxed)
                )),
                true,
            ),
        };
        BlockStore {
            accountant,
            budget,
            dir,
            owns_dir,
            inner: Mutex::new(Inner {
                slots: Vec::new(),
                clock: 0,
                stats: StagingStats::default(),
            }),
        }
    }

    /// The configured memory budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Stage block `index`. Least-recently-used blocks are spilled
    /// *before* admission, so the resident total never exceeds the
    /// budget, not even transiently; a block bigger than the whole
    /// budget goes straight to its spill chunk.
    pub fn insert(&self, index: usize, obj: DataObject) -> Result<()> {
        let bytes = binary::encoded_len(&obj) as u64;
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.slots.len() <= index {
            inner.slots.resize_with(index + 1, || Slot::Vacant);
        }
        self.evict_slot(&mut inner, index)?;
        inner.stats.inserts += 1;
        inner.clock += 1;
        let now = inner.clock;
        if self.budget.is_some_and(|b| bytes > b) {
            let path = self.write_chunk(index, &obj)?;
            inner.slots[index] = Slot::Spilled { path, bytes };
            inner.stats.spills += 1;
            inner.stats.spilled_bytes += bytes;
            self.accountant.0.spilled.fetch_add(bytes, Ordering::Relaxed);
            return Ok(());
        }
        self.make_room(&mut inner, bytes)?;
        inner.slots[index] = Slot::Resident {
            obj: Arc::new(obj),
            bytes,
            last_use: now,
        };
        inner.stats.resident_bytes += bytes;
        self.accountant.0.resident.fetch_add(bytes, Ordering::Relaxed);
        inner.stats.peak_resident_bytes =
            inner.stats.peak_resident_bytes.max(inner.stats.resident_bytes);
        Ok(())
    }

    /// Fetch a handle to block `index`, streaming it back from its spill
    /// chunk if it was evicted. A resident block is shared, not copied (the
    /// store's lock is held for a reference count, not a deep copy); the
    /// store accounts what *it* holds, so a handle that outlives an eviction
    /// is the holder's memory. Re-admission respects the budget: the
    /// reloaded block only stays resident if it fits after evicting
    /// colder blocks.
    pub fn get(&self, index: usize) -> Result<Arc<DataObject>> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.clock += 1;
        let now = inner.clock;
        match inner.slots.get_mut(index) {
            Some(Slot::Resident { obj, last_use, .. }) => {
                *last_use = now;
                Ok(Arc::clone(obj))
            }
            Some(Slot::Spilled { path, bytes }) => {
                let (path, bytes) = (path.clone(), *bytes);
                let raw = fs::read(&path)?;
                let obj = Arc::new(Codec::Lossless.decode(crate::Bytes::from(raw))?);
                inner.stats.reloads += 1;
                inner.stats.reloaded_bytes += bytes;
                // Re-admit only a block that can ever fit: a block
                // larger than the whole budget streams straight through.
                if self.budget.is_none_or(|b| bytes <= b) {
                    self.make_room(&mut inner, bytes)?;
                    let _ = fs::remove_file(&path);
                    inner.slots[index] = Slot::Resident {
                        obj: Arc::clone(&obj),
                        bytes,
                        last_use: now,
                    };
                    inner.stats.resident_bytes += bytes;
                    self.accountant.0.resident.fetch_add(bytes, Ordering::Relaxed);
                    inner.stats.peak_resident_bytes = inner
                        .stats
                        .peak_resident_bytes
                        .max(inner.stats.resident_bytes);
                }
                Ok(obj)
            }
            _ => Err(DataError::MissingAttribute(format!("staged block {index}"))),
        }
    }

    /// Number of slots (occupied or not).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .slots
            .len()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `index` holds a block (resident or spilled). Does not
    /// touch the LRU clock.
    pub fn contains(&self, index: usize) -> bool {
        matches!(
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .slots
                .get(index),
            Some(Slot::Resident { .. } | Slot::Spilled { .. })
        )
    }

    /// Snapshot of the byte-accountant counters.
    pub fn stats(&self) -> StagingStats {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stats
    }

    /// Spill every resident block whose last use is older than the
    /// newest `keep_hot` accesses would allow, until the resident total
    /// is ≤ `target`. Used by the harness to shrink staging ahead of a
    /// memory-hungry phase.
    pub fn shrink_to(&self, target: u64) -> Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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

    /// Spill least-recently-used blocks until `incoming` more bytes fit
    /// under the budget.
    fn make_room(&self, inner: &mut Inner, incoming: u64) -> Result<()> {
        let Some(budget) = self.budget else { return Ok(()) };
        while inner.stats.resident_bytes + incoming > budget {
            if !self.spill_coldest(inner)? {
                break;
            }
        }
        Ok(())
    }

    /// Spill the least-recently-used resident block. Returns false when
    /// nothing is left to spill.
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
        let Some((_, index)) = coldest else { return Ok(false) };
        self.spill_index(inner, index)?;
        Ok(true)
    }

    fn spill_index(&self, inner: &mut Inner, index: usize) -> Result<()> {
        let Slot::Resident { obj, bytes, .. } =
            std::mem::replace(&mut inner.slots[index], Slot::Vacant)
        else {
            return Ok(());
        };
        let path = self.write_chunk(index, &obj)?;
        inner.slots[index] = Slot::Spilled { path, bytes };
        inner.stats.resident_bytes -= bytes;
        inner.stats.spills += 1;
        inner.stats.spilled_bytes += bytes;
        self.accountant.0.resident.fetch_sub(bytes, Ordering::Relaxed);
        self.accountant.0.spilled.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Write one block's spill chunk temp-then-rename and return its
    /// final path. A crash mid-write leaves only a `.tmp` orphan, which
    /// the stale-chunk sweep reclaims on resume.
    fn write_chunk(&self, index: usize, obj: &DataObject) -> Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.chunk_path(index);
        let tmp = path.with_extension("ebd.tmp");
        fs::write(&tmp, Codec::Lossless.encode(obj))?;
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Drop any previous occupant of `index`, reclaiming its bytes or
    /// its chunk file.
    fn evict_slot(&self, inner: &mut Inner, index: usize) -> Result<()> {
        match std::mem::replace(&mut inner.slots[index], Slot::Vacant) {
            Slot::Resident { bytes, .. } => {
                inner.stats.resident_bytes -= bytes;
                self.accountant.0.resident.fetch_sub(bytes, Ordering::Relaxed);
            }
            Slot::Spilled { path, .. } => {
                let _ = fs::remove_file(path);
            }
            Slot::Vacant => {}
        }
        Ok(())
    }

    fn chunk_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("block_{index:05}.ebd"))
    }
}

impl Drop for BlockStore {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.accountant
            .0
            .resident
            .fetch_sub(inner.stats.resident_bytes, Ordering::Relaxed);
        for slot in &inner.slots {
            if let Slot::Spilled { path, .. } = slot {
                let _ = fs::remove_file(path);
            }
        }
        if self.owns_dir {
            let _ = fs::remove_dir(&self.dir);
        }
    }
}

/// Remove stale spill chunks (and torn temp files) from a reused spill
/// directory — the cleanup a resume owes a crashed predecessor.
fn sweep_stale_chunks(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("block_") && (name.ends_with(".ebd") || name.ends_with(".tmp")) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Attribute;
    use crate::points::PointCloud;
    use crate::vec3::Vec3;
    use proptest::prelude::*;

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
        c.set_attribute("density", Attribute::Scalar((0..n).map(|i| i as f32 * 0.25).collect()))
            .unwrap();
        DataObject::Points(c)
    }

    fn positions(obj: &DataObject) -> Vec<Vec3> {
        obj.as_points().unwrap().positions().to_vec()
    }

    #[test]
    fn unbounded_store_never_spills() {
        let store = BlockStore::unbounded();
        for i in 0..4 {
            store.insert(i, block(i as u64, 100)).unwrap();
        }
        for i in 0..4 {
            assert_eq!(positions(&store.get(i).unwrap()), positions(&block(i as u64, 100)));
        }
        let stats = store.stats();
        assert_eq!(stats.spills, 0);
        assert_eq!(stats.reloads, 0);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn over_budget_blocks_spill_lru_and_stream_back_byte_identical() {
        let one = binary::encoded_len(&block(0, 200)) as u64;
        // room for two blocks: the third insert must spill the coldest
        let store = BlockStore::new(Some(one * 2 + one / 2), None);
        for i in 0..4 {
            store.insert(i, block(i as u64, 200)).unwrap();
            store.assert_within_budget();
        }
        let stats = store.stats();
        assert!(stats.spills >= 2, "spills: {}", stats.spills);
        assert!(stats.peak_resident_bytes <= one * 2 + one / 2);
        // every block — resident or spilled — reads back bit-exactly
        for i in 0..4 {
            let got = store.get(i).unwrap();
            let want = block(i as u64, 200);
            assert_eq!(positions(&got), positions(&want), "block {i}");
            assert_eq!(
                got.as_points().unwrap().scalar("density").unwrap(),
                want.as_points().unwrap().scalar("density").unwrap()
            );
            store.assert_within_budget();
        }
        assert!(store.stats().reloads >= 2);
    }

    #[test]
    fn block_larger_than_budget_streams_through_without_admission() {
        let big = block(7, 500);
        let bytes = binary::encoded_len(&big) as u64;
        let store = BlockStore::new(Some(bytes / 2), None);
        store.insert(0, big.clone()).unwrap();
        store.assert_within_budget();
        assert_eq!(store.stats().resident_bytes, 0, "oversized block must not stay resident");
        for _ in 0..2 {
            assert_eq!(positions(&store.get(0).unwrap()), positions(&big));
            store.assert_within_budget();
        }
    }

    #[test]
    fn accountant_tracks_its_own_stores_and_releases_on_drop() {
        let ours = StagingAccountant::new();
        let one = binary::encoded_len(&block(1, 300)) as u64;
        let store = BlockStore::accounted(Some(one), None, ours.clone());
        let unrelated = BlockStore::unbounded();
        unrelated.insert(0, block(9, 300)).unwrap();
        store.insert(0, block(1, 300)).unwrap();
        assert_eq!(ours.resident_bytes(), one, "someone else's store leaked in");
        store.insert(1, block(2, 300)).unwrap(); // evicts block 0
        assert_eq!(ours.resident_bytes(), one);
        assert_eq!(ours.spilled_bytes(), one);
        drop(store);
        assert_eq!(ours.resident_bytes(), 0);
        assert_eq!(ours.spilled_bytes(), one, "spilled is cumulative");
    }

    #[test]
    fn explicit_spill_dir_is_swept_of_stale_chunks() {
        let dir = std::env::temp_dir().join(format!("eth-staging-sweep-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("block_00000.ebd"), b"stale garbage").unwrap();
        fs::write(dir.join("block_00001.ebd.tmp"), b"torn spill").unwrap();
        fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        let store = BlockStore::new(Some(1), Some(dir.clone()));
        assert!(!dir.join("block_00000.ebd").exists(), "stale chunk must be GC'd");
        assert!(!dir.join("block_00001.ebd.tmp").exists(), "torn spill must be GC'd");
        assert!(dir.join("unrelated.txt").exists(), "non-chunk files are not ours");
        store.insert(0, block(3, 100)).unwrap();
        assert_eq!(positions(&store.get(0).unwrap()), positions(&block(3, 100)));
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reinserting_an_index_reclaims_the_old_occupant() {
        let store = BlockStore::unbounded();
        store.insert(0, block(1, 400)).unwrap();
        let after_first = store.stats().resident_bytes;
        store.insert(0, block(2, 400)).unwrap();
        assert_eq!(store.stats().resident_bytes, after_first);
        assert_eq!(positions(&store.get(0).unwrap()), positions(&block(2, 400)));
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
            let mut store = BlockStore::new(Some(budget), None);
            let mut staged: Vec<Option<u64>> = vec![None; 6];
            for (step, (index, op)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        let seed = (step as u64) << 8 | index as u64;
                        store.insert(index, block(seed, 150)).unwrap();
                        staged[index] = Some(seed);
                    }
                    1 => {
                        if let Some(seed) = staged[index] {
                            let got = store.get(index).unwrap();
                            let want = block(seed, 150);
                            prop_assert_eq!(positions(&got), positions(&want));
                        }
                    }
                    _ => {
                        // shrink the budget and rebuild the store around
                        // the surviving blocks (a rescale under pressure)
                        budget = (budget / 2).max(1);
                        let next = BlockStore::new(Some(budget), None);
                        for (i, seed) in staged.iter().enumerate() {
                            if let Some(seed) = seed {
                                next.insert(i, (*store.get(i).unwrap()).clone()).unwrap();
                                prop_assert_eq!(
                                    positions(&next.get(i).unwrap()),
                                    positions(&block(*seed, 150))
                                );
                            }
                        }
                        store = next;
                    }
                }
                store.assert_within_budget();
            }
            // final sweep: everything staged reads back bit-exactly
            for (i, seed) in staged.iter().enumerate() {
                if let Some(seed) = seed {
                    prop_assert_eq!(
                        positions(&store.get(i).unwrap()),
                        positions(&block(*seed, 150))
                    );
                }
            }
        }
    }
}
