//! Crash-safe campaign journal: an append-only write-ahead log plus
//! per-point result files, scoped to a campaign directory.
//!
//! Layout of a campaign directory:
//!
//! ```text
//! <dir>/journal.jsonl        append-only WAL, one framed record per line
//! <dir>/manifest.json        campaign manifest (written temp-then-rename)
//! <dir>/results/point_NNNN.bin   verified binary result per finished point
//! ```
//!
//! **WAL framing.** Each line is `{len:08x} {crc:08x} {json}\n` — the JSON
//! byte length and its CRC-32 ([`eth_data::crc`]) prefix the record, so a
//! reader can tell a torn or truncated tail (the crash case) from a valid
//! record. Replay stops at the first bad line and discards the rest: a
//! crash can only ever cost the in-flight suffix, never the completed
//! prefix, and is never fatal. Appends are flushed and `sync_data`'d, so a
//! record that replay returns was durably on disk before its point was
//! reported done.
//!
//! **Spec hashing.** Records carry a hash of the design point's full spec
//! ([`spec_hash`]). On resume the hash is checked against the *current*
//! sweep: editing one point's spec invalidates exactly that point's
//! journal history, nobody else's.
//!
//! **Result files.** A finished point's images and metrics are persisted
//! raw (`f32` pixels, not the lossy 8-bit PPM artifact path) with a CRC-32
//! trailer, so a resumed campaign restores byte-identical results or —
//! if the file is missing, torn, or from a different spec — silently
//! re-runs the point. Journal and result writes are best-effort from the
//! scheduler's perspective: losing one costs re-execution on resume,
//! never a wrong result.

use crate::config::ExperimentSpec;
use crate::error::{CoreError, Result};
use crate::harness::{Degradation, NativeOutcome, PhaseEnergy, PhaseTimes};
use eth_cluster::counters::CounterSet;
use eth_cluster::metrics::RunMetrics;
use eth_data::crc::crc32;
use eth_data::io::le::{put_slice_le, read_vec_le, LeElement};
use eth_data::Vec3;
use eth_render::pipeline::RenderStats;
use eth_render::Image;
use eth_sim::timeseries::process_alive;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// WAL file name inside a campaign directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// Manifest file name inside a campaign directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Subdirectory holding per-point result files.
pub const RESULTS_DIR: &str = "results";
/// Lockfile guarding a campaign directory against concurrent writers.
pub const LOCK_FILE: &str = "journal.lock";

/// One journal record. `Started` is appended before a point's attempt
/// runs; `Finished` after it completes (either way). The last `Finished`
/// for an index wins on replay; a `Started` without a matching `Finished`
/// marks an attempt that was in flight when the process died.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    Started {
        index: usize,
        spec_hash: u64,
        attempt: u32,
    },
    Finished {
        index: usize,
        spec_hash: u64,
        attempt: u32,
        elapsed_s: f64,
        outcome: RecordedOutcome,
    },
}

/// How an attempt ended, as recorded in the WAL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecordedOutcome {
    Ok,
    Err { error: String, quarantined: bool },
}

/// Campaign manifest: the point list this directory was journaled
/// against, for inspection and sanity checks. Always written atomically
/// (temp file + rename), never updated in place.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    pub points: Vec<ManifestPoint>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestPoint {
    pub index: usize,
    pub name: String,
    pub spec_hash: u64,
}

/// FNV-1a 64 over the spec's canonical JSON form. Any observable change
/// to a design point changes its hash, which is what invalidates that
/// point's journal history on resume.
pub fn spec_hash(spec: &ExperimentSpec) -> u64 {
    let text = serde_json::to_string(spec).unwrap_or_else(|_| format!("{spec:?}"));
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// In-process registry of held journal locks. The on-disk lockfile
/// excludes *other* processes; this set excludes a second `Journal` in
/// the *same* process (same pid in the lockfile would otherwise read as
/// "our own stale lock" and be stolen).
static HELD_LOCKS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

fn lock_key(dir: &Path) -> PathBuf {
    fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf())
}

/// Take the campaign-directory lock: an atomically-created lockfile
/// carrying the holder's pid. A lockfile whose recorded process is dead
/// (a SIGKILL'd server, say) is stale and is stolen; a live holder — a
/// draining server whose restarted successor raced it, the exact
/// interleaved-append hazard — yields a structured
/// [`CoreError::JournalLocked`].
fn acquire_dir_lock(dir: &Path) -> Result<()> {
    let key = lock_key(dir);
    {
        let mut held = HELD_LOCKS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if held.contains(&key) {
            return Err(CoreError::JournalLocked {
                dir: dir.to_path_buf(),
                holder: std::process::id(),
            });
        }
        held.push(key.clone());
    }
    let path = dir.join(LOCK_FILE);
    let release_in_process = || {
        let mut held = HELD_LOCKS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        held.retain(|p| p != &key);
    };
    for _ in 0..3 {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                let _ = file.write_all(format!("{}\n", std::process::id()).as_bytes());
                let _ = file.sync_data();
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid != std::process::id() && process_alive(pid) => {
                        release_in_process();
                        return Err(CoreError::JournalLocked {
                            dir: dir.to_path_buf(),
                            holder: pid,
                        });
                    }
                    // Dead holder, our own pid from a crashed-and-reused
                    // incarnation, or an unreadable lockfile: stale.
                    // Remove and retry the atomic create (a concurrent
                    // stealer losing the race loops back and sees the
                    // winner's live pid).
                    _ => {
                        let _ = fs::remove_file(&path);
                    }
                }
            }
            Err(e) => {
                release_in_process();
                return Err(e.into());
            }
        }
    }
    release_in_process();
    Err(CoreError::JournalLocked {
        dir: dir.to_path_buf(),
        holder: 0,
    })
}

/// An open campaign journal: appends are serialized through a mutex,
/// flushed, and fsync'd, so the WAL on disk is always a valid prefix of
/// the records appended. Holding a `Journal` holds the directory lock
/// (see [`LOCK_FILE`]); it is released on drop.
pub struct Journal {
    dir: PathBuf,
    file: Mutex<File>,
    /// Byte quota across the WAL and `results/*.bin`; `None` = unbounded.
    quota: Option<u64>,
    /// Bytes charged against the quota so far (pre-existing files
    /// included once a quota is set).
    used: AtomicU64,
    /// Per-point durable-write ordinals, for deterministic disk-full
    /// injection: the counter survives retries, so a fault that tears
    /// attempt 1's Nth write lets attempt 2 get past it.
    point_writes: Mutex<HashMap<usize, u64>>,
}

impl Journal {
    /// Open (or create) the journal in `dir`, creating the campaign
    /// directory layout as needed. Appends go to the end of any existing
    /// WAL — resuming extends the same history. Orphaned `*.bin.tmp`
    /// result files (a crash mid-rename) are GC'd here, before anything
    /// is charged against a quota. Fails with
    /// [`CoreError::JournalLocked`] if another live journal (in this
    /// process or another) already owns the directory.
    pub fn open(dir: &Path) -> Result<Journal> {
        fs::create_dir_all(dir.join(RESULTS_DIR))?;
        acquire_dir_lock(dir)?;
        gc_orphan_results(dir);
        let file = match OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL_FILE))
        {
            Ok(f) => f,
            Err(e) => {
                release_dir_lock(dir);
                return Err(e.into());
            }
        };
        Ok(Journal {
            dir: dir.to_path_buf(),
            file: Mutex::new(file),
            quota: None,
            used: AtomicU64::new(0),
            point_writes: Mutex::new(HashMap::new()),
        })
    }

    /// Bound this journal's disk use. Pre-existing bytes — a resumed
    /// WAL, restored `results/point_NNNN.bin` files — are accounted
    /// immediately, so a resume under quota starts from the truth on
    /// disk, not from zero.
    pub fn with_quota(mut self, quota: Option<u64>) -> Journal {
        self.quota = quota;
        if quota.is_some() {
            self.used = AtomicU64::new(existing_bytes(&self.dir));
        }
        self
    }

    /// The campaign directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes currently charged against the quota.
    pub fn quota_used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// The configured quota, if any.
    pub fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// Charge `needed` bytes against the quota, or fail with a
    /// classified [`CoreError::DiskFull`] *before* touching the disk —
    /// the WAL never gains a torn line from running out of quota.
    fn charge(&self, needed: u64, what: &str) -> Result<()> {
        let Some(quota) = self.quota else { return Ok(()) };
        let used = self.used.load(Ordering::Relaxed);
        if used.saturating_add(needed) > quota {
            return Err(CoreError::DiskFull {
                what: what.to_string(),
                needed,
                used,
                quota,
            });
        }
        self.used.fetch_add(needed, Ordering::Relaxed);
        Ok(())
    }

    /// Count a durable write for `index` and fail it if the point's
    /// fault plan injects disk-full at this ordinal.
    fn check_injected(&self, index: usize, fail_at: Option<u64>, what: &str, needed: u64) -> Result<()> {
        let Some(fail_at) = fail_at else { return Ok(()) };
        let ordinal = {
            let mut writes = self
                .point_writes
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let n = writes.entry(index).or_insert(0);
            let ordinal = *n;
            *n += 1;
            ordinal
        };
        if ordinal == fail_at {
            return Err(CoreError::DiskFull {
                what: format!("{what} (injected disk_full_at_append {fail_at})"),
                needed,
                used: self.quota_used(),
                quota: self.quota.unwrap_or(0),
            });
        }
        Ok(())
    }

    /// Append one record: framed, flushed, fsync'd.
    pub fn append(&self, record: &JournalRecord) -> Result<()> {
        self.append_for_point(None, None, record)
    }

    /// Append one record on behalf of point `index`, honoring the
    /// point's injected disk-full fault and the journal quota. A real
    /// `ENOSPC` from the OS is classified the same way the quota is.
    pub fn append_for_point(
        &self,
        index: Option<usize>,
        fail_at: Option<u64>,
        record: &JournalRecord,
    ) -> Result<()> {
        let json = serde_json::to_string(record)
            .map_err(|e| CoreError::Config(format!("unserializable journal record: {e}")))?;
        let line = format!("{:08x} {:08x} {}\n", json.len(), crc32(json.as_bytes()), json);
        if let Some(index) = index {
            self.check_injected(index, fail_at, "journal append", line.len() as u64)?;
        }
        self.charge(line.len() as u64, "journal append")?;
        // the span covers lock + write + fsync: what one durable append costs
        let mut span = eth_obs::span(eth_obs::Phase::JournalAppend);
        span.set_bytes(line.len() as u64);
        let mut file = self.file.lock().unwrap();
        file.write_all(line.as_bytes()).map_err(classify_io)?;
        file.flush().map_err(classify_io)?;
        file.sync_data().map_err(classify_io)?;
        Ok(())
    }

    /// Persist a finished point's result through the quota accountant
    /// (see the free [`save_result`] for the format). The result bytes
    /// are charged before the write; an injected or real disk-full
    /// cleans up its temp file instead of leaving a torn spill.
    pub fn save_result_governed(
        &self,
        index: usize,
        fail_at: Option<u64>,
        spec_hash: u64,
        outcome: &NativeOutcome,
    ) -> Result<()> {
        let buf = encode_result(spec_hash, outcome)?;
        self.check_injected(index, fail_at, "result write", buf.len() as u64)?;
        self.charge(buf.len() as u64, "result write")?;
        write_result_bytes(&self.dir, index, &buf)
    }
}

/// Map an IO failure on the durable path: `ENOSPC` becomes the
/// classified, retryable [`CoreError::DiskFull`]; anything else stays an
/// IO error.
fn classify_io(e: std::io::Error) -> CoreError {
    if e.kind() == std::io::ErrorKind::StorageFull {
        CoreError::DiskFull {
            what: "durable write (ENOSPC)".into(),
            needed: 0,
            used: 0,
            quota: 0,
        }
    } else {
        e.into()
    }
}

/// Bytes on disk a quota must account for before new writes: the
/// resumed WAL plus every surviving result file.
fn existing_bytes(dir: &Path) -> u64 {
    let mut used = fs::metadata(dir.join(JOURNAL_FILE)).map(|m| m.len()).unwrap_or(0);
    if let Ok(entries) = fs::read_dir(dir.join(RESULTS_DIR)) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().ends_with(".bin") {
                used += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    used
}

/// Remove `*.bin.tmp` orphans left by a crash between a result file's
/// write and its rename. They are invisible to `load_result` (which
/// only reads final paths) but would otherwise leak disk and poison a
/// quota accounting forever.
fn gc_orphan_results(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir.join(RESULTS_DIR)) else { return };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().ends_with(".bin.tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
}

fn release_dir_lock(dir: &Path) {
    let key = lock_key(dir);
    let mut held = HELD_LOCKS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    held.retain(|p| p != &key);
    let _ = fs::remove_file(dir.join(LOCK_FILE));
}

impl Drop for Journal {
    fn drop(&mut self) {
        release_dir_lock(&self.dir);
    }
}

/// Replay the WAL in `dir`. A missing file is an empty history; a torn or
/// truncated tail (bad length, bad checksum, malformed JSON, unterminated
/// last line) ends the replay at the last valid record — never an error.
pub fn replay(dir: &Path) -> Result<Vec<JournalRecord>> {
    let bytes = match fs::read(dir.join(JOURNAL_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    Ok(parse_records(&bytes))
}

fn parse_records(bytes: &[u8]) -> Vec<JournalRecord> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        // a record is only valid once its terminator hit the disk
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            break;
        };
        match parse_line(&bytes[pos..pos + nl]) {
            Some(record) => out.push(record),
            // first bad line: everything from here on is the torn tail
            None => break,
        }
        pos += nl + 1;
    }
    out
}

fn parse_line(line: &[u8]) -> Option<JournalRecord> {
    let line = std::str::from_utf8(line).ok()?;
    let (len_hex, rest) = line.split_once(' ')?;
    let (crc_hex, json) = rest.split_once(' ')?;
    let len = usize::from_str_radix(len_hex, 16).ok()?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if json.len() != len || crc32(json.as_bytes()) != crc {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// Write the campaign manifest atomically (temp file + rename): readers
/// see either the old manifest or the new one, never a torn mix.
pub fn write_manifest(dir: &Path, specs: &[ExperimentSpec], hashes: &[u64]) -> Result<()> {
    let manifest = CampaignManifest {
        points: specs
            .iter()
            .zip(hashes)
            .enumerate()
            .map(|(index, (spec, &spec_hash))| ManifestPoint {
                index,
                name: spec.name.clone(),
                spec_hash,
            })
            .collect(),
    };
    let json = serde_json::to_string_pretty(&manifest)
        .map_err(|e| CoreError::Config(format!("unserializable manifest: {e}")))?;
    write_atomic(&dir.join(MANIFEST_FILE), json.as_bytes())?;
    Ok(())
}

/// Replace `path` with `bytes` atomically: write `<path>.tmp`, `fsync` it,
/// rename it over `path`. A reader (or a restart after a crash) sees the
/// old file or the new one, never a torn mix. A failed write removes its
/// temp file, so disk exhaustion leaves no torn spill behind.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let write = || -> std::io::Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, path)
    };
    write().inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Read the campaign manifest, if one has been written.
pub fn read_manifest(dir: &Path) -> Result<Option<CampaignManifest>> {
    let text = match fs::read_to_string(dir.join(MANIFEST_FILE)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| CoreError::Config(format!("malformed campaign manifest: {e}")))
}

/// Path of the result file for point `index`.
pub fn result_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(RESULTS_DIR).join(format!("point_{index:04}.bin"))
}

const RESULT_MAGIC: &[u8; 4] = b"EPR1";

/// Everything a [`NativeOutcome`] carries besides the spec and the raw
/// pixels, serialized as the result file's JSON header.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ResultHeader {
    spec_hash: u64,
    wall_s: f64,
    phases: PhaseTimes,
    stats: RenderStats,
    bytes_moved: u64,
    degradation: Degradation,
    // observability fields; default-valued when restoring a result file
    // written before phase-attributed power (nodes == 0 marks those)
    #[serde(default)]
    metrics: RunMetrics,
    #[serde(default)]
    phase_energy: Vec<PhaseEnergy>,
    #[serde(default)]
    counters: CounterSet,
    // recovery latencies; absent in files written before in-run fault
    // tolerance existed
    #[serde(default)]
    recovery_latency_s: Vec<f64>,
    // handoff disruption samples; absent in files written before live
    // migration existed
    #[serde(default)]
    migration_disruption_s: Vec<f64>,
}

/// Persist a finished point's outcome: JSON header + raw `f32` pixels +
/// CRC-32 trailer, written to a temp file, fsync'd, then renamed into
/// place. Raw pixels (not the 8-bit PPM artifact path) keep restored
/// results byte-identical to the run that produced them.
pub fn save_result(dir: &Path, index: usize, spec_hash: u64, outcome: &NativeOutcome) -> Result<()> {
    let buf = encode_result(spec_hash, outcome)?;
    write_result_bytes(dir, index, &buf)
}

/// Serialize a result file's bytes (header + pixels + CRC trailer)
/// without touching the disk, so quota accounting can see the exact
/// cost before committing to the write.
fn encode_result(spec_hash: u64, outcome: &NativeOutcome) -> Result<Vec<u8>> {
    let header = ResultHeader {
        spec_hash,
        wall_s: outcome.wall_s,
        phases: outcome.phases,
        stats: outcome.stats,
        bytes_moved: outcome.bytes_moved,
        degradation: outcome.degradation,
        metrics: outcome.metrics.clone(),
        phase_energy: outcome.phase_energy.clone(),
        counters: outcome.counters.clone(),
        recovery_latency_s: outcome.recovery_latency_s.clone(),
        migration_disruption_s: outcome.migration_disruption_s.clone(),
    };
    let json = serde_json::to_string(&header)
        .map_err(|e| CoreError::Config(format!("unserializable result header: {e}")))?;
    let pixel_bytes: usize = outcome
        .images
        .iter()
        .map(|image| 8 + image.pixels().len() * Vec3::BYTES)
        .sum();
    // magic + header length + header + image count + images + CRC trailer
    let exact = 4 + 4 + json.len() + 4 + pixel_bytes + 4;
    let mut buf = Vec::with_capacity(exact);
    buf.extend_from_slice(RESULT_MAGIC);
    buf.extend_from_slice(&(json.len() as u32).to_le_bytes());
    buf.extend_from_slice(json.as_bytes());
    buf.extend_from_slice(&(outcome.images.len() as u32).to_le_bytes());
    for image in &outcome.images {
        buf.extend_from_slice(&(image.width() as u32).to_le_bytes());
        buf.extend_from_slice(&(image.height() as u32).to_le_bytes());
        put_slice_le(&mut buf, image.pixels());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(buf.len(), exact, "result size out of sync with its layout");
    Ok(buf)
}

/// Write pre-encoded result bytes through [`write_atomic`].
fn write_result_bytes(dir: &Path, index: usize, buf: &[u8]) -> Result<()> {
    write_atomic(&result_path(dir, index), buf).map_err(classify_io)
}

fn corrupt(index: usize, what: &str) -> CoreError {
    CoreError::Data(eth_data::DataError::Corrupt(format!(
        "result file for point {index}: {what}"
    )))
}

/// Load and verify a persisted result. Fails — and the caller re-runs the
/// point — when the file is missing, fails its checksum, or was produced
/// by a spec whose hash differs from `expect_hash`. The reconstructed
/// outcome carries the *current* `spec`.
pub fn load_result(
    dir: &Path,
    index: usize,
    expect_hash: u64,
    spec: &ExperimentSpec,
) -> Result<NativeOutcome> {
    let bytes = fs::read(result_path(dir, index))?;
    if bytes.len() < RESULT_MAGIC.len() + 4 + 4 {
        return Err(corrupt(index, "truncated"));
    }
    let body_len = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
    let computed = crc32(&bytes[..body_len]);
    if stored != computed {
        return Err(corrupt(
            index,
            &format!("checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        ));
    }
    if &bytes[..4] != RESULT_MAGIC {
        return Err(corrupt(index, "bad magic"));
    }
    let body = &bytes[4..body_len];
    let header_len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
    let rest = &body[4..];
    if rest.len() < header_len + 4 {
        return Err(corrupt(index, "header overruns file"));
    }
    let header_json =
        std::str::from_utf8(&rest[..header_len]).map_err(|_| corrupt(index, "header not utf-8"))?;
    let header: ResultHeader = serde_json::from_str(header_json)
        .map_err(|e| corrupt(index, &format!("malformed header: {e}")))?;
    if header.spec_hash != expect_hash {
        return Err(CoreError::Config(format!(
            "result file for point {index} was produced by a different spec \
             (hash {:#018x}, expected {expect_hash:#018x})",
            header.spec_hash
        )));
    }
    let mut rest = &rest[header_len..];
    let image_count = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    rest = &rest[4..];
    // The count sits behind a CRC stored in the same file, so it is a
    // claim: an image needs at least its 8 dimension bytes, and the bytes
    // present bound the reservation (a lying count ends in `Err` below).
    let mut images = Vec::with_capacity(image_count.min(rest.len() / 8));
    for _ in 0..image_count {
        if rest.len() < 8 {
            return Err(corrupt(index, "image table truncated"));
        }
        let width = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let height = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
        rest = &rest[8..];
        let pixel_bytes = width
            .checked_mul(height)
            .and_then(|n| n.checked_mul(Vec3::BYTES))
            .ok_or_else(|| corrupt(index, "image dimensions overflow"))?;
        if rest.len() < pixel_bytes {
            return Err(corrupt(index, "pixel data truncated"));
        }
        let pixels = read_vec_le(&rest[..pixel_bytes]);
        images.push(
            Image::from_pixels(width, height, pixels)
                .map_err(|e| corrupt(index, &format!("bad image: {e}")))?,
        );
        rest = &rest[pixel_bytes..];
    }
    Ok(NativeOutcome {
        spec: spec.clone(),
        wall_s: header.wall_s,
        phases: header.phases,
        images,
        stats: header.stats,
        bytes_moved: header.bytes_moved,
        degradation: header.degradation,
        metrics: header.metrics,
        phase_energy: header.phase_energy,
        counters: header.counters,
        recovery_latency_s: header.recovery_latency_s,
        migration_disruption_s: header.migration_disruption_s,
        // journaled outcomes predate flow stitching; replays reattribute
        critical_path: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, Application};
    use crate::harness::run_native;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eth-journal-test-{tag}-{:x}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec(name: &str) -> ExperimentSpec {
        ExperimentSpec::builder(name)
            .application(Application::Hacc { particles: 600 })
            .algorithm(Algorithm::GaussianSplat)
            .ranks(1)
            .image_size(16, 16)
            .build()
            .unwrap()
    }

    #[test]
    fn records_roundtrip_through_the_wal() {
        let dir = tmp_dir("roundtrip");
        let journal = Journal::open(&dir).unwrap();
        let records = vec![
            JournalRecord::Started { index: 0, spec_hash: 7, attempt: 1 },
            JournalRecord::Finished {
                index: 0,
                spec_hash: 7,
                attempt: 1,
                elapsed_s: 0.25,
                outcome: RecordedOutcome::Ok,
            },
            JournalRecord::Finished {
                index: 1,
                spec_hash: 9,
                attempt: 3,
                elapsed_s: 1.5,
                outcome: RecordedOutcome::Err {
                    error: "transport error: timeout".into(),
                    quarantined: true,
                },
            },
        ];
        for r in &records {
            journal.append(r).unwrap();
        }
        assert_eq!(replay(&dir).unwrap(), records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_an_empty_history() {
        let dir = tmp_dir("missing");
        assert!(replay(&dir).unwrap().is_empty());
    }

    #[test]
    fn truncation_at_any_byte_keeps_the_valid_prefix() {
        let dir = tmp_dir("truncate");
        let journal = Journal::open(&dir).unwrap();
        let records: Vec<JournalRecord> = (0..4)
            .map(|i| JournalRecord::Started { index: i, spec_hash: i as u64, attempt: 1 })
            .collect();
        for r in &records {
            journal.append(r).unwrap();
        }
        let full = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        for cut in 0..=full.len() {
            let parsed = parse_records(&full[..cut]);
            // the parsed list is always a prefix of the real history...
            assert!(parsed.len() <= records.len());
            assert_eq!(parsed[..], records[..parsed.len()], "cut at {cut}");
            // ...and a cut inside record k never loses records before k
            let complete_before_cut = full[..cut].iter().filter(|&&b| b == b'\n').count();
            assert!(parsed.len() >= complete_before_cut.min(records.len()), "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_tail_is_discarded_not_fatal() {
        let dir = tmp_dir("garbage");
        let journal = Journal::open(&dir).unwrap();
        let good = JournalRecord::Started { index: 0, spec_hash: 1, attempt: 1 };
        journal.append(&good).unwrap();
        // a torn line with a valid-looking frame but a wrong checksum
        let mut bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        bytes.extend_from_slice(b"00000002 deadbeef {}\n");
        fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        assert_eq!(replay(&dir).unwrap(), vec![good]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A line as `Journal::append` frames it.
    fn frame(json: &str) -> Vec<u8> {
        format!("{:08x} {:08x} {}\n", json.len(), crc32(json.as_bytes()), json).into_bytes()
    }

    #[test]
    fn a_checkpoint_record_ends_replay_at_its_line() {
        // The `Checkpoint` record kind is gone. A recovery journal from a
        // build that still had it holds lines like this one, framed by
        // `Journal::append` with a valid length and CRC: replay ends at it,
        // as at any line it cannot read, and keeps everything before it.
        let dir = tmp_dir("checkpoint-kind");
        let journal = Journal::open(&dir).unwrap();
        let before = JournalRecord::Started { index: 0, spec_hash: 1, attempt: 1 };
        journal.append(&before).unwrap();
        let old = r#"{"Checkpoint":{"checkpoint":{"rank":1,"partition":1,"step":3,"proxy_cursor":4,"rng_state":43,"degradation":{"dropped_steps":0,"degraded_steps":0,"timeouts":0,"disconnects":0,"corrupt_payloads":0,"rank_losses":0,"adopted_partitions":0,"missing_contributions":0,"migrations":0,"migration_failures":0}}}}"#;
        let line = frame(old);
        assert!(line.starts_with(b"0000012d bec87623 "), "not the bytes the old writer framed");
        let mut bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        bytes.extend_from_slice(&line);
        bytes.extend_from_slice(&frame(&serde_json::to_string(&before).unwrap()));
        fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        assert_eq!(replay(&dir).unwrap(), vec![before]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_opener_is_refused_while_the_lock_is_held() {
        let dir = tmp_dir("lock");
        let first = Journal::open(&dir).unwrap();
        assert!(dir.join(LOCK_FILE).exists());
        // a concurrent opener — the draining-server-vs-successor race —
        // gets a structured error, not interleaved appends
        match Journal::open(&dir) {
            Err(CoreError::JournalLocked { dir: locked, holder }) => {
                assert_eq!(locked, dir);
                assert_eq!(holder, std::process::id());
            }
            other => panic!("expected JournalLocked, got {:?}", other.map(|_| ())),
        }
        // dropping the holder releases the lock for the next opener
        drop(first);
        assert!(!dir.join(LOCK_FILE).exists());
        let second = Journal::open(&dir).unwrap();
        drop(second);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_stolen() {
        let dir = tmp_dir("stale-lock");
        fs::create_dir_all(&dir).unwrap();
        // pid 0 is the swapper/scheduler: never a valid holder, and
        // /proc/0 does not exist — exactly what a SIGKILL'd server leaves
        fs::write(dir.join(LOCK_FILE), "0\n").unwrap();
        let journal = Journal::open(&dir).expect("stale lock must be stolen");
        journal
            .append(&JournalRecord::Started { index: 0, spec_hash: 1, attempt: 1 })
            .unwrap();
        drop(journal);
        // garbage lock content is stale too
        fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        assert!(Journal::open(&dir).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn zombie_lock_holder_counts_as_dead() {
        // `timeout -s KILL` kills the journal holder AND its parent, so
        // nobody reaps it: the holder lingers in /proc as a zombie.
        // Recreate that exactly — spawn a child, let it exit, don't wait
        // on it — and the lock it "holds" must be stealable.
        let dir = tmp_dir("zombie-lock");
        fs::create_dir_all(&dir).unwrap();
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawn child");
        let pid = child.id();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stat = fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
            if stat.rfind(')').is_some_and(|c| stat[c + 1..].trim_start().starts_with('Z')) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "child never zombified");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        fs::write(dir.join(LOCK_FILE), format!("{pid}\n")).unwrap();
        assert!(!process_alive(pid), "zombie must read as dead");
        Journal::open(&dir).expect("zombie-held lock must be stolen");
        drop(child); // reap happens on test-process exit
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_exhaustion_is_classified_and_never_tears_the_wal() {
        let dir = tmp_dir("quota");
        let journal = Journal::open(&dir).unwrap().with_quota(Some(200));
        let record = JournalRecord::Started { index: 0, spec_hash: 7, attempt: 1 };
        let mut appended = 0u64;
        let err = loop {
            match journal.append(&record) {
                Ok(()) => appended += 1,
                Err(e) => break e,
            }
            assert!(appended < 100, "a 200-byte quota cannot hold 100 records");
        };
        assert!(appended >= 1, "at least one record fits");
        match &err {
            CoreError::DiskFull { used, quota, .. } => {
                assert_eq!(*quota, 200);
                assert!(*used <= 200);
            }
            other => panic!("expected DiskFull, got {other}"),
        }
        // the WAL on disk is still a clean prefix: every appended record
        // replays, nothing torn
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.len() as u64, appended);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_accounts_preexisting_results_and_wal_on_resume() {
        let dir = tmp_dir("quota-resume");
        {
            let journal = Journal::open(&dir).unwrap();
            journal
                .append(&JournalRecord::Started { index: 0, spec_hash: 1, attempt: 1 })
                .unwrap();
            let spec = small_spec("quota-resume");
            let outcome = run_native(&spec).unwrap();
            save_result(&dir, 0, spec_hash(&spec), &outcome).unwrap();
        }
        let wal = fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        let result = fs::metadata(result_path(&dir, 0)).unwrap().len();
        // an orphan temp file from a crash mid-rename: GC'd, not charged
        fs::write(dir.join(RESULTS_DIR).join("point_0007.bin.tmp"), vec![0u8; 4096]).unwrap();

        let journal = Journal::open(&dir).unwrap().with_quota(Some(1 << 30));
        assert!(!dir.join(RESULTS_DIR).join("point_0007.bin.tmp").exists());
        assert_eq!(journal.quota_used(), wal + result);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_disk_full_tears_the_exact_write_then_lets_the_retry_through() {
        let dir = tmp_dir("injected-full");
        let journal = Journal::open(&dir).unwrap();
        let record = JournalRecord::Started { index: 3, spec_hash: 1, attempt: 1 };
        // point 3's second durable write fails; writes 0, 2, 3... succeed
        journal.append_for_point(Some(3), Some(1), &record).unwrap();
        let err = journal.append_for_point(Some(3), Some(1), &record).unwrap_err();
        assert!(matches!(err, CoreError::DiskFull { .. }), "got {err}");
        // the ordinal advanced past the fault: the retry's write lands
        journal.append_for_point(Some(3), Some(1), &record).unwrap();
        // other points are unaffected
        journal.append_for_point(Some(5), Some(1), &record).unwrap();
        assert_eq!(replay(&dir).unwrap().len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn governed_result_save_charges_quota_and_cleans_up_on_failure() {
        let dir = tmp_dir("governed-save");
        let spec = small_spec("governed");
        let outcome = run_native(&spec).unwrap();
        let hash = spec_hash(&spec);
        {
            let journal = Journal::open(&dir).unwrap().with_quota(Some(1 << 30));
            journal.save_result_governed(0, None, hash, &outcome).unwrap();
            assert!(journal.quota_used() >= fs::metadata(result_path(&dir, 0)).unwrap().len());
            assert_eq!(load_result(&dir, 0, hash, &spec).unwrap().images, outcome.images);
        }
        // a quota too small for the result refuses before writing
        {
            let journal = Journal::open(&dir).unwrap().with_quota(Some(8));
            let err = journal.save_result_governed(1, None, hash, &outcome).unwrap_err();
            assert!(matches!(err, CoreError::DiskFull { .. }), "got {err}");
            assert!(!result_path(&dir, 1).exists());
            assert!(!result_path(&dir, 1).with_extension("bin.tmp").exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_tracks_observable_changes() {
        let a = small_spec("hash");
        let mut b = a.clone();
        assert_eq!(spec_hash(&a), spec_hash(&b));
        b.sampling_ratio = 0.5;
        assert_ne!(spec_hash(&a), spec_hash(&b));
    }

    #[test]
    fn manifest_round_trips_atomically() {
        let dir = tmp_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(read_manifest(&dir).unwrap().is_none());
        let specs = vec![small_spec("m0"), small_spec("m1")];
        let hashes: Vec<u64> = specs.iter().map(spec_hash).collect();
        write_manifest(&dir, &specs, &hashes).unwrap();
        let manifest = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(manifest.points.len(), 2);
        assert_eq!(manifest.points[1].spec_hash, hashes[1]);
        assert!(!dir.join(format!("{MANIFEST_FILE}.tmp")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_atomic_write_keeps_the_old_file_and_leaves_no_temp() {
        let dir = tmp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.json");
        let tmp = dir.join("record.json.tmp");
        write_atomic(&path, b"old").unwrap();
        assert!(!tmp.exists());

        // the temp path is taken by a directory: creating it fails
        fs::create_dir(&tmp).unwrap();
        assert!(write_atomic(&path, b"new").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"old");
        assert!(tmp.is_dir(), "only the planted directory is left at the temp path");
        fs::remove_dir(&tmp).unwrap();

        // the target is a non-empty directory: the temp file is written,
        // the rename fails, and the temp file goes with the failure
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("inside")).unwrap();
        assert!(write_atomic(&blocked, b"new").is_err());
        assert!(!dir.join("blocked.tmp").exists());
        assert!(blocked.join("inside").is_dir());

        write_atomic(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_restore_byte_identical_and_detect_tampering() {
        let dir = tmp_dir("results");
        Journal::open(&dir).unwrap();
        let spec = small_spec("persist");
        let outcome = run_native(&spec).unwrap();
        let hash = spec_hash(&spec);
        save_result(&dir, 0, hash, &outcome).unwrap();

        let back = load_result(&dir, 0, hash, &spec).unwrap();
        assert_eq!(back.images, outcome.images, "pixels must survive exactly");
        assert_eq!(back.stats, outcome.stats);
        assert_eq!(back.bytes_moved, outcome.bytes_moved);

        // wrong expected hash => refused
        assert!(load_result(&dir, 0, hash ^ 1, &spec).is_err());
        // flip one pixel byte on disk => checksum refuses it
        let path = result_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_result(&dir, 0, hash, &spec),
            Err(CoreError::Data(eth_data::DataError::Corrupt(_)))
        ));
        // missing file is an error too (caller re-runs)
        assert!(load_result(&dir, 5, hash, &spec).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    mod result_file {
        use super::*;
        use proptest::prelude::*;

        /// A result file around `tail`: valid magic, a valid header for
        /// spec hash 7, then `tail` where the image table goes, and a CRC
        /// recomputed over all of it — what a file that passes its checksum
        /// but lies in its image table looks like.
        fn with_tail(tail: &[u8]) -> Vec<u8> {
            let header = ResultHeader {
                spec_hash: 7,
                wall_s: 0.0,
                phases: PhaseTimes::default(),
                stats: RenderStats::default(),
                bytes_moved: 0,
                degradation: Degradation::default(),
                metrics: RunMetrics::default(),
                phase_energy: Vec::new(),
                counters: CounterSet::new(),
                recovery_latency_s: Vec::new(),
                migration_disruption_s: Vec::new(),
            };
            let json = serde_json::to_string(&header).unwrap();
            let mut buf = RESULT_MAGIC.to_vec();
            buf.extend_from_slice(&(json.len() as u32).to_le_bytes());
            buf.extend_from_slice(json.as_bytes());
            buf.extend_from_slice(tail);
            let crc = crc32(&buf);
            buf.extend_from_slice(&crc.to_le_bytes());
            buf
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Replay is total: whatever bytes the WAL holds, it returns the
            /// records of the valid lines before the first bad one and never
            /// panics. One flipped bit in a valid line (length, CRC, JSON or
            /// its newline) ends replay at that line.
            #[test]
            fn parsing_is_total_and_keeps_the_valid_prefix(
                n in 0usize..5,
                noise in prop::collection::vec(0u16..256, 0..160),
                flip in 0usize..4096,
            ) {
                let records: Vec<JournalRecord> = (0..n)
                    .map(|i| JournalRecord::Started { index: i, spec_hash: 31 * i as u64, attempt: 1 })
                    .collect();
                let mut bytes: Vec<u8> = records
                    .iter()
                    .flat_map(|r| frame(&serde_json::to_string(r).unwrap()))
                    .collect();
                let valid = bytes.len();
                // noise dense in newlines, so it is cut into many lines
                bytes.extend(noise.iter().map(|&b| if b % 8 == 0 { b'\n' } else { b as u8 }));
                let parsed = parse_records(&bytes[valid..]);
                let lines = bytes[valid..].iter().filter(|&&b| b == b'\n').count();
                prop_assert!(parsed.len() <= lines);
                let parsed = parse_records(&bytes);
                prop_assert!(parsed.len() >= n);
                prop_assert_eq!(&parsed[..n], &records[..]);
                if valid > 0 {
                    let at = flip % valid;
                    bytes[at] ^= 0x01;
                    let line = bytes[..at].iter().filter(|&&b| b == b'\n').count();
                    prop_assert_eq!(parse_records(&bytes), records[..line].to_vec());
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// An image count the bytes present cannot hold is `Err` —
            /// never a count-sized reservation and an abort — and any other
            /// tail loads or fails without panicking.
            #[test]
            fn loading_is_total(
                count in 0u64..1 << 32,
                noise in prop::collection::vec(0u16..256, 0..96),
            ) {
                let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
                let dir = tmp_dir("result-total");
                Journal::open(&dir).unwrap();
                let spec = small_spec("total");
                let mut tail = (count as u32).to_le_bytes().to_vec();
                tail.extend_from_slice(&noise);
                fs::write(result_path(&dir, 0), with_tail(&tail)).unwrap();
                let loaded = load_result(&dir, 0, 7, &spec);
                if count as usize > noise.len() / 8 {
                    prop_assert!(loaded.is_err(), "{count} images in {} bytes", noise.len());
                }
                fs::write(result_path(&dir, 0), with_tail(&noise)).unwrap();
                let _ = load_result(&dir, 0, 7, &spec);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}
