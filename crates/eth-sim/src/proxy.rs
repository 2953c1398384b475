//! The ETH simulation proxy.
//!
//! "The ETH simulation proxy reads data from the disk and then operates on
//! the data in parallel" (Section III-A). A proxy instance represents one
//! rank of the simulation job: it presents that rank's blocks of a
//! [`TimeSeries`] — a recording opened from disk (Figure 7), or the
//! staging series the harness fills for a run — one timestep at a time.
//! The harness's step loop presents every block through
//! [`SimulationProxy::step`]; [`SimulationProxy::run`] drives an
//! [`InSituSink`] through the same rule.
//!
//! One bad block costs a frame, not the rank: a block whose file is
//! corrupt or missing is skipped, counted once in `proxy_skipped_steps`,
//! and the proxy moves on.

use crate::interface::InSituSink;
use crate::timeseries::TimeSeries;
use eth_data::error::{DataError, Result};
use eth_data::DataObject;
use std::path::Path;
use std::sync::Arc;

/// A rank of the simulation proxy.
pub struct SimulationProxy {
    series: Arc<TimeSeries>,
    rank: usize,
}

impl SimulationProxy {
    /// Proxy presenting `rank`'s blocks of `series`.
    pub fn new(series: Arc<TimeSeries>, rank: usize) -> SimulationProxy {
        SimulationProxy { series, rank }
    }

    /// Proxy replaying a recorded series from `root` as `rank`.
    pub fn from_disk(root: &Path, rank: usize) -> Result<SimulationProxy> {
        Ok(SimulationProxy::new(
            Arc::new(TimeSeries::open(root)?),
            rank,
        ))
    }

    pub fn num_timesteps(&self) -> usize {
        self.series.num_steps()
    }

    /// Present the block for one step (the "simulation compute" phase): the
    /// series' own handle, never a copy. A block that is corrupt or missing
    /// on disk is `None` — a degraded step, counted in
    /// `proxy_skipped_steps` — and every other failure (a step or rank
    /// outside the series, an I/O error) is an error.
    pub fn step(&mut self, step: usize) -> Result<Option<Arc<DataObject>>> {
        let block = match self.series.get(step, self.rank) {
            Ok(block) => Some(block),
            Err(DataError::Corrupt(_)) => None,
            Err(DataError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(other) => return Err(other),
        };
        if block.is_none() {
            eth_obs::count("proxy_skipped_steps", 1.0);
        }
        Ok(block)
    }

    /// Drive a sink through every timestep (tight coupling: source and sink
    /// in the same call stack, exactly the paper's unified mode). Skipped
    /// steps are counted in [`ProxyRunStats::skipped_steps`]; any other
    /// failure, the sink's included, aborts the run.
    pub fn run(&mut self, sink: &mut dyn InSituSink) -> Result<ProxyRunStats> {
        self.run_from(0, sink)
    }

    /// [`SimulationProxy::run`], starting at `start_step` instead of zero.
    pub fn run_from(
        &mut self,
        start_step: usize,
        sink: &mut dyn InSituSink,
    ) -> Result<ProxyRunStats> {
        let mut stats = ProxyRunStats::default();
        for step in start_step..self.num_timesteps() {
            let sim_span = eth_obs::span(eth_obs::Phase::Sim);
            let Some(data) = self.step(step)? else {
                stats.skipped_steps += 1;
                continue;
            };
            drop(sim_span);
            stats.steps += 1;
            stats.elements += data.num_elements() as u64;
            stats.bytes_presented += data.payload_bytes() as u64;
            sink.consume(step, &data)?;
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
    use crate::timeseries::StagingAccountant;
    use eth_data::partition::partition_points;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eth-sim-proxy-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// An all-resident single-rank series of `steps` HACC steps.
    fn staged(particles: usize, steps: usize) -> Arc<TimeSeries> {
        let cfg = HaccConfig::with_particles(particles);
        let series = TimeSeries::new(1, steps, None, None, StagingAccountant::new()).unwrap();
        for step in 0..steps {
            series
                .insert(step, 0, DataObject::Points(cfg.generate(step).unwrap()))
                .unwrap();
        }
        Arc::new(series)
    }

    #[test]
    fn proxy_drives_sink() {
        let mut proxy = SimulationProxy::new(staged(500, 3), 0);
        let mut sink = CountingSink::default();
        let stats = proxy.run(&mut sink).unwrap();
        assert_eq!(stats.steps, 3);
        assert_eq!(sink.steps, 3);
        assert_eq!(sink.elements, 1500);
        assert!(sink.finished);
        assert_eq!(stats.elements, sink.elements);
    }

    #[test]
    fn a_step_presents_the_series_block_itself() {
        let series = staged(100, 2);
        let mut proxy = SimulationProxy::new(series.clone(), 0);
        let presented = proxy.step(1).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&presented, &series.get(1, 0).unwrap()),
            "the proxy copied a block"
        );
    }

    #[test]
    fn disk_proxy_replays_preliminary_run() {
        // Preliminary run: generate, partition over 2 ranks, write.
        let root = tmp("replay");
        let cfg = HaccConfig::with_particles(800);
        let ranks = 2;
        let steps = 2;
        let w = TimeSeries::create(&root, "hacc", ranks, steps).unwrap();
        for step in 0..steps {
            let cloud = cfg.generate(step).unwrap();
            let parts = partition_points(&cloud, ranks).unwrap();
            for (rank, part) in parts.into_iter().enumerate() {
                w.insert(step, rank, DataObject::Points(part)).unwrap();
            }
        }
        w.close().unwrap();

        // Replay both ranks; together they must see every particle.
        let mut total = 0u64;
        for rank in 0..ranks {
            let mut proxy = SimulationProxy::from_disk(&root, rank).unwrap();
            assert_eq!(proxy.num_timesteps(), 2);
            let mut sink = CountingSink::default();
            proxy.run(&mut sink).unwrap();
            total += sink.elements;
        }
        assert_eq!(total, 800 * steps as u64);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_rank_outside_the_series_aborts_the_run() {
        let mut proxy = SimulationProxy::new(staged(100, 2), 5);
        let mut sink = CountingSink::default();
        let err = proxy.run(&mut sink).unwrap_err();
        assert!(matches!(err, DataError::InvalidArgument(_)), "{err}");
        assert!(!sink.finished);
    }

    #[test]
    fn corrupt_and_missing_blocks_degrade_instead_of_erroring() {
        let root = tmp("degraded");
        let cfg = HaccConfig::with_particles(300);
        let steps = 4;
        let w = TimeSeries::create(&root, "hacc", 1, steps).unwrap();
        for step in 0..steps {
            let cloud = cfg.generate(step).unwrap();
            w.insert(step, 0, DataObject::Points(cloud)).unwrap();
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
    fn run_from_replays_only_the_tail() {
        let series = staged(200, 5);
        let mut full_sink = CountingSink::default();
        let mut full = SimulationProxy::new(series.clone(), 0);
        full.run(&mut full_sink).unwrap();
        assert_eq!(full_sink.steps, 5);

        // a proxy opened at step 3 sees steps 3..5
        let mut tail_sink = CountingSink::default();
        let mut tail = SimulationProxy::new(series, 0);
        let stats = tail.run_from(3, &mut tail_sink).unwrap();
        assert_eq!(stats.steps, 2);
        assert_eq!(tail_sink.steps, 2);
        assert!(tail_sink.finished);
    }

    #[test]
    fn budgeted_series_replays_byte_identically() {
        // A budget far below four blocks forces spills; every step, and a
        // second recovery-style pass over all of them, must come back
        // byte-identical to the all-resident series.
        let plain = staged(600, 4);
        let budgeted = TimeSeries::new(1, 4, Some(8_000), None, StagingAccountant::new()).unwrap();
        for step in 0..4 {
            budgeted
                .insert(step, 0, (*plain.get(step, 0).unwrap()).clone())
                .unwrap();
        }
        let budgeted = Arc::new(budgeted);
        let (mut a, mut b) = (
            SimulationProxy::new(budgeted.clone(), 0),
            SimulationProxy::new(plain, 0),
        );
        for _pass in 0..2 {
            for step in 0..4 {
                assert_eq!(
                    a.step(step).unwrap(),
                    b.step(step).unwrap(),
                    "step {step} diverged"
                );
            }
        }
        assert!(
            budgeted.stats().reloads > 0,
            "the budget never forced a reload"
        );
    }
}
