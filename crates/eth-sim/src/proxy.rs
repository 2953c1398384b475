//! The ETH simulation proxy.
//!
//! "The ETH simulation proxy reads data from the disk and then operates on
//! the data in parallel" (Section III-A). A proxy instance represents one
//! rank of the simulation job; it obtains its per-rank blocks either from a
//! recorded [`TimeSeriesReader`] (the
//! production path, Figure 7) or from an in-memory generator (the quick
//! path used by experiments that synthesize data on the fly), and drives an
//! [`InSituSink`] through every timestep.

use crate::interface::{InSituSink, SimulationSource};
use crate::timeseries::TimeSeriesReader;
use eth_data::error::{DataError, Result};
use eth_data::DataObject;
use std::path::Path;

/// A rank of the simulation proxy.
pub struct SimulationProxy {
    source: Box<dyn SimulationSource + Send>,
    /// Next step to produce: advances past each completed (or degraded)
    /// step so recovery can resume a rank's traversal from its last
    /// checkpoint instead of replaying from step zero.
    cursor: usize,
}

/// Source backed by a recorded time series on disk.
struct DiskSource {
    reader: TimeSeriesReader,
    rank: usize,
}

impl SimulationSource for DiskSource {
    fn num_timesteps(&self) -> usize {
        self.reader.manifest().num_steps
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.reader.manifest().num_ranks
    }

    fn timestep(&mut self, step: usize) -> Result<DataObject> {
        self.reader.read_block(step, self.rank)
    }
}

/// Source backed by a generator closure (rank-partitioned synthesis).
struct GeneratorSource<F> {
    generate: F,
    rank: usize,
    num_ranks: usize,
    num_steps: usize,
}

impl<F> SimulationSource for GeneratorSource<F>
where
    F: FnMut(usize, usize) -> Result<DataObject>,
{
    fn num_timesteps(&self) -> usize {
        self.num_steps
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    fn timestep(&mut self, step: usize) -> Result<DataObject> {
        (self.generate)(step, self.rank)
    }
}

/// Source wrapper that memoizes blocks through a byte-budgeted
/// [`eth_data::staging::BlockStore`]: the first read of a step goes to
/// the inner source, every later read (recovery replays, adoption
/// tails, repeated `step` calls) is served from the staging store —
/// resident when it fits the budget, streamed back from a compressed
/// spill chunk when it does not. Residency never exceeds the budget.
struct StagedSource {
    inner: Box<dyn SimulationSource + Send>,
    store: eth_data::staging::BlockStore,
}

impl SimulationSource for StagedSource {
    fn num_timesteps(&self) -> usize {
        self.inner.num_timesteps()
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }

    fn timestep(&mut self, step: usize) -> Result<DataObject> {
        if self.store.contains(step) {
            return self.store.get(step).map(std::sync::Arc::unwrap_or_clone);
        }
        let block = self.inner.timestep(step)?;
        self.store.insert(step, block.clone())?;
        Ok(block)
    }
}

impl SimulationProxy {
    /// Proxy replaying a recorded series from `root` as `rank`.
    pub fn from_disk(root: &Path, rank: usize) -> Result<SimulationProxy> {
        let reader = TimeSeriesReader::open(root)?;
        if rank >= reader.manifest().num_ranks {
            return Err(DataError::InvalidArgument(format!(
                "rank {rank} outside series with {} ranks",
                reader.manifest().num_ranks
            )));
        }
        Ok(SimulationProxy {
            source: Box::new(DiskSource { reader, rank }),
            cursor: 0,
        })
    }

    /// Proxy generating data on the fly. `generate(step, rank)` must return
    /// the block this rank would have loaded.
    pub fn from_generator<F>(
        rank: usize,
        num_ranks: usize,
        num_steps: usize,
        generate: F,
    ) -> SimulationProxy
    where
        F: FnMut(usize, usize) -> Result<DataObject> + Send + 'static,
    {
        SimulationProxy {
            source: Box::new(GeneratorSource {
                generate,
                rank,
                num_ranks,
                num_steps,
            }),
            cursor: 0,
        }
    }

    /// Proxy over any custom source.
    pub fn from_source(source: Box<dyn SimulationSource + Send>) -> SimulationProxy {
        SimulationProxy { source, cursor: 0 }
    }

    /// Interpose a byte-budgeted staging store between this proxy and its
    /// source: blocks are memoized on first read and re-reads are served
    /// from the store, with least-recently-used blocks spilled to
    /// compressed on-disk chunks (in `spill_dir`, or a private temp
    /// directory) whenever residency would exceed `memory_budget_bytes`.
    /// `None` keeps everything resident — a pure memoization layer.
    pub fn with_staging_budget(
        self,
        memory_budget_bytes: Option<u64>,
        spill_dir: Option<std::path::PathBuf>,
    ) -> SimulationProxy {
        SimulationProxy {
            source: Box::new(StagedSource {
                inner: self.source,
                store: eth_data::staging::BlockStore::new(memory_budget_bytes, spill_dir),
            }),
            cursor: self.cursor,
        }
    }

    pub fn rank(&self) -> usize {
        self.source.rank()
    }

    pub fn num_ranks(&self) -> usize {
        self.source.num_ranks()
    }

    pub fn num_timesteps(&self) -> usize {
        self.source.num_timesteps()
    }

    /// Produce the data for one step (the "simulation compute" phase).
    pub fn step(&mut self, step: usize) -> Result<DataObject> {
        let data = self.source.timestep(step)?;
        self.cursor = self.cursor.max(step + 1);
        Ok(data)
    }

    /// The next step this proxy would produce: the number of steps it has
    /// completed so far. A recovery checkpoint records this so an adopting
    /// rank can [`SimulationProxy::run_from`] the dead rank's position.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The migration cursor handoff: jump the cursor forward to `step`
    /// without producing data, so a proxy standing in for a migrated-in
    /// partition resumes exactly where the transferred checkpoint says the
    /// source left off. Forward-only — applying a stale checkpoint never
    /// rewinds progress already made.
    pub fn adopt_cursor(&mut self, step: usize) {
        self.cursor = self.cursor.max(step);
    }

    /// Drive a sink through every timestep (tight coupling: source and sink
    /// in the same call stack, exactly the paper's unified mode).
    ///
    /// A block that fails to load because its file is corrupt or missing is
    /// a *degraded* step — it is skipped and counted in
    /// [`ProxyRunStats::skipped_steps`] so one bad block on disk costs a
    /// frame, not the whole rank. Every other failure (bad shape, decode
    /// errors from a generator, sink errors) still aborts the run.
    pub fn run(&mut self, sink: &mut dyn InSituSink) -> Result<ProxyRunStats> {
        self.run_from(0, sink)
    }

    /// [`SimulationProxy::run`], starting at `start_step` instead of zero.
    /// This is the adoption path: a rank that inherits a dead peer's
    /// partition replays only the steps the peer had not completed.
    pub fn run_from(
        &mut self,
        start_step: usize,
        sink: &mut dyn InSituSink,
    ) -> Result<ProxyRunStats> {
        let mut stats = ProxyRunStats::default();
        for step in start_step..self.source.num_timesteps() {
            self.cursor = self.cursor.max(step);
            let sim_span = eth_obs::span(eth_obs::Phase::Sim);
            let data = match self.source.timestep(step) {
                Ok(data) => data,
                Err(DataError::Corrupt(_)) => {
                    stats.skipped_steps += 1;
                    self.cursor = self.cursor.max(step + 1);
                    eth_obs::count("proxy_skipped_steps", 1.0);
                    continue;
                }
                Err(DataError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    stats.skipped_steps += 1;
                    self.cursor = self.cursor.max(step + 1);
                    eth_obs::count("proxy_skipped_steps", 1.0);
                    continue;
                }
                Err(other) => return Err(other),
            };
            drop(sim_span);
            stats.steps += 1;
            stats.elements += data.num_elements() as u64;
            stats.bytes_presented += data.payload_bytes() as u64;
            sink.consume(step, &data)?;
            self.cursor = self.cursor.max(step + 1);
        }
        sink.finish()?;
        Ok(stats)
    }
}

/// Accounting from one proxy run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProxyRunStats {
    pub steps: usize,
    pub elements: u64,
    /// Bytes presented across the in-situ interface.
    pub bytes_presented: u64,
    /// Steps dropped because their block was corrupt or missing on disk.
    pub skipped_steps: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hacc::HaccConfig;
    use crate::interface::CountingSink;
    use crate::timeseries::TimeSeriesWriter;
    use eth_data::partition::partition_points;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eth-sim-proxy-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn generator_proxy_drives_sink() {
        let cfg = HaccConfig::with_particles(500);
        let mut proxy = SimulationProxy::from_generator(0, 1, 3, move |step, _rank| {
            Ok(DataObject::Points(cfg.generate(step)?))
        });
        let mut sink = CountingSink::default();
        let stats = proxy.run(&mut sink).unwrap();
        assert_eq!(stats.steps, 3);
        assert_eq!(sink.steps, 3);
        assert_eq!(sink.elements, 1500);
        assert!(sink.finished);
        assert_eq!(stats.elements, sink.elements);
    }

    #[test]
    fn disk_proxy_replays_preliminary_run() {
        // Preliminary run: generate, partition over 2 ranks, write.
        let root = tmp("replay");
        let cfg = HaccConfig::with_particles(800);
        let ranks = 2;
        let steps = 2;
        let mut w = TimeSeriesWriter::create(&root, "hacc", ranks, steps).unwrap();
        for step in 0..steps {
            let cloud = cfg.generate(step).unwrap();
            let parts = partition_points(&cloud, ranks).unwrap();
            for (rank, part) in parts.into_iter().enumerate() {
                w.write_block(step, rank, &DataObject::Points(part)).unwrap();
            }
        }
        w.close().unwrap();

        // Replay both ranks; together they must see every particle.
        let mut total = 0u64;
        for rank in 0..ranks {
            let mut proxy = SimulationProxy::from_disk(&root, rank).unwrap();
            assert_eq!(proxy.num_ranks(), 2);
            assert_eq!(proxy.num_timesteps(), 2);
            let mut sink = CountingSink::default();
            proxy.run(&mut sink).unwrap();
            total += sink.elements;
        }
        assert_eq!(total, 800 * steps as u64);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn disk_proxy_validates_rank() {
        let root = tmp("badrank");
        let mut w = TimeSeriesWriter::create(&root, "x", 1, 1).unwrap();
        w.write_block(
            0,
            0,
            &DataObject::Points(eth_data::PointCloud::new()),
        )
        .unwrap();
        w.close().unwrap();
        assert!(SimulationProxy::from_disk(&root, 5).is_err());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_and_missing_blocks_degrade_instead_of_erroring() {
        let root = tmp("degraded");
        let cfg = HaccConfig::with_particles(300);
        let steps = 4;
        let mut w = TimeSeriesWriter::create(&root, "hacc", 1, steps).unwrap();
        for step in 0..steps {
            let cloud = cfg.generate(step).unwrap();
            w.write_block(step, 0, &DataObject::Points(cloud)).unwrap();
        }
        w.close().unwrap();

        // Corrupt step 1's block and delete step 2's entirely.
        let victim = root.join("step_0001").join("rank_0000.ebd");
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        fs::remove_file(root.join("step_0002").join("rank_0000.ebd")).unwrap();

        let mut proxy = SimulationProxy::from_disk(&root, 0).unwrap();
        let mut sink = CountingSink::default();
        let stats = proxy.run(&mut sink).unwrap();
        assert_eq!(stats.steps, 2, "steps 0 and 3 survive");
        assert_eq!(stats.skipped_steps, 2, "steps 1 and 2 degraded");
        assert_eq!(sink.steps, 2);
        assert!(sink.finished);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn generator_errors_still_abort_the_run() {
        let mut proxy = SimulationProxy::from_generator(0, 1, 3, |step, _rank| {
            if step == 1 {
                Err(DataError::InvalidArgument("synthesis bug".into()))
            } else {
                Ok(DataObject::Points(eth_data::PointCloud::new()))
            }
        });
        let mut sink = CountingSink::default();
        let err = proxy.run(&mut sink).unwrap_err();
        assert!(err.to_string().contains("synthesis bug"));
        assert!(!sink.finished);
    }

    #[test]
    fn run_from_replays_only_the_tail() {
        let cfg = HaccConfig::with_particles(200);
        let make = || {
            let cfg = cfg.clone();
            SimulationProxy::from_generator(0, 1, 5, move |step, _rank| {
                Ok(DataObject::Points(cfg.generate(step)?))
            })
        };
        let mut full_sink = CountingSink::default();
        let mut full = make();
        full.run(&mut full_sink).unwrap();
        assert_eq!(full.cursor(), 5);

        // an adopter resuming from a checkpoint at step 3 sees steps 3..5
        let mut tail_sink = CountingSink::default();
        let mut tail = make();
        let stats = tail.run_from(3, &mut tail_sink).unwrap();
        assert_eq!(stats.steps, 2);
        assert_eq!(tail_sink.steps, 2);
        assert!(tail_sink.finished);
        assert_eq!(tail.cursor(), 5);
    }

    #[test]
    fn cursor_tracks_completed_steps() {
        let cfg = HaccConfig::with_particles(100);
        let mut proxy = SimulationProxy::from_generator(0, 1, 4, move |step, _| {
            Ok(DataObject::Points(cfg.generate(step)?))
        });
        assert_eq!(proxy.cursor(), 0);
        proxy.step(0).unwrap();
        assert_eq!(proxy.cursor(), 1);
        proxy.step(2).unwrap();
        assert_eq!(proxy.cursor(), 3);
        // stepping an earlier step never rewinds the cursor
        proxy.step(1).unwrap();
        assert_eq!(proxy.cursor(), 3);
    }

    #[test]
    fn adopt_cursor_is_forward_only_and_feeds_run_from() {
        let cfg = HaccConfig::with_particles(100);
        let make = || {
            let cfg = cfg.clone();
            SimulationProxy::from_generator(0, 1, 5, move |step, _rank| {
                Ok(DataObject::Points(cfg.generate(step)?))
            })
        };
        let mut proxy = make();
        proxy.adopt_cursor(3);
        assert_eq!(proxy.cursor(), 3);
        // a stale checkpoint never rewinds
        proxy.adopt_cursor(1);
        assert_eq!(proxy.cursor(), 3);
        // resuming from the adopted cursor replays only the tail
        let mut sink = CountingSink::default();
        let cursor = proxy.cursor();
        let stats = proxy.run_from(cursor, &mut sink).unwrap();
        assert_eq!(stats.steps, 2);
        assert_eq!(proxy.cursor(), 5);
    }

    #[test]
    fn staging_budget_replays_byte_identically_and_counts_the_source_once() {
        let cfg = HaccConfig::with_particles(600);
        let reads = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let make = |budget: Option<u64>| {
            let cfg = cfg.clone();
            let reads = reads.clone();
            SimulationProxy::from_generator(0, 1, 4, move |step, _rank| {
                reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(DataObject::Points(cfg.generate(step)?))
            })
            .with_staging_budget(budget, None)
        };
        // A budget far below four blocks forces spills; replayed steps
        // must still come back byte-identical and never hit the source.
        let mut budgeted = make(Some(8_000));
        let mut plain = make(None);
        reads.store(0, std::sync::atomic::Ordering::SeqCst);
        for step in 0..4 {
            let a = budgeted.step(step).unwrap();
            let b = plain.step(step).unwrap();
            assert_eq!(a, b, "step {step} diverged under the budget");
        }
        assert_eq!(reads.load(std::sync::atomic::Ordering::SeqCst), 8);
        // Recovery-style replay of the full range: all served from the
        // stores (spill chunks included), zero extra source reads.
        for step in 0..4 {
            let a = budgeted.step(step).unwrap();
            let b = plain.step(step).unwrap();
            assert_eq!(a, b, "replayed step {step} diverged");
        }
        assert_eq!(
            reads.load(std::sync::atomic::Ordering::SeqCst),
            8,
            "replay must not re-run the simulation source"
        );
    }

    #[test]
    fn step_is_repeatable() {
        let cfg = HaccConfig::with_particles(100);
        let mut proxy = SimulationProxy::from_generator(0, 1, 2, move |step, _| {
            Ok(DataObject::Points(cfg.generate(step)?))
        });
        let a = proxy.step(1).unwrap();
        let b = proxy.step(1).unwrap();
        assert_eq!(a, b);
    }
}
