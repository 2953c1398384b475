use super::launch::local_role;
use super::outcome::RankOutput;
use super::staging::{memoize, stage_data, MemoSlot};
use super::step::{drain, encode_block, migrate_handshakes, RankCx, VizFabric};
use super::*;
use crate::config::{Algorithm, Application, Coupling, ExperimentSpec, Handoff, RecoveryPolicy};
use crate::error::CoreError;
use bytes::Bytes;
use eth_data::compress::Codec;
use eth_transport::comm::{Communicator, TransportError};
use eth_transport::fault::{FaultPlan, DATA_TAG_MIN};
use eth_transport::link::{FabricLink, PairLink};
use eth_transport::local::LocalFabric;
use eth_transport::HeartbeatPolicy;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

fn base_spec(name: &str) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 3_000 })
        .algorithm(Algorithm::GaussianSplat)
        .ranks(3)
        .steps(2)
        .images_per_step(2)
        .image_size(40, 40)
        .build()
        .unwrap()
}

#[test]
fn tight_native_run_end_to_end() {
    let spec = base_spec("tight");
    let out = run_native(&spec).unwrap();
    assert_eq!(out.images.len(), 4); // 2 steps x 2 images
    assert!(out.images[0].coverage(0.01) > 0.0, "blank image");
    assert!(out.stats.fragments > 0);
    assert!(out.phases.viz_s > 0.0);
    assert!(out.bytes_moved > 0, "compositing moved no bytes");
    assert!(out.report().contains("tight"));
}

#[test]
fn intercore_native_run_matches_tight_images() {
    let tight = run_native(&base_spec("a")).unwrap();
    let mut spec = base_spec("a"); // same name/seed => same data
    spec.coupling = Coupling::Intercore;
    let intercore = run_native(&spec).unwrap();
    assert_eq!(intercore.images.len(), tight.images.len());
    for (a, b) in tight.images.iter().zip(&intercore.images) {
        let rmse = a.rmse(b).unwrap();
        assert!(rmse < 1e-6, "couplings changed the image: rmse {rmse}");
    }
    assert!(intercore.phases.transfer_s >= 0.0);
}

#[test]
fn internode_native_run_matches_tight_images() {
    let tight = run_native(&base_spec("b")).unwrap();
    let mut spec = base_spec("b");
    spec.coupling = Coupling::Internode;
    let internode = run_native(&spec).unwrap();
    assert_eq!(internode.images.len(), tight.images.len());
    for (a, b) in tight.images.iter().zip(&internode.images) {
        let rmse = a.rmse(b).unwrap();
        assert!(rmse < 1e-6, "couplings changed the image: rmse {rmse}");
    }
    // internode really moved the data across the socket layer
    assert!(internode.bytes_moved > tight.bytes_moved);
}

#[test]
fn grid_application_native_run() {
    let spec = ExperimentSpec::builder("grid")
        .application(Application::Xrage { dims: [20, 16, 12] })
        .algorithm(Algorithm::RaycastIsosurface)
        .ranks(2)
        .image_size(40, 40)
        .build()
        .unwrap();
    let out = run_native(&spec).unwrap();
    assert_eq!(out.images.len(), 1);
    assert!(out.images[0].coverage(0.01) > 0.005, "isosurface invisible");
}

#[test]
fn sampling_changes_output_but_not_shape() {
    let full = run_native(&base_spec("s")).unwrap();
    let mut spec = base_spec("s");
    spec.sampling_ratio = 0.25;
    let sampled = run_native(&spec).unwrap();
    let rmse = sampled.images[0].rmse(&full.images[0]).unwrap();
    assert!(rmse > 0.0, "sampling must change the image");
    assert!(rmse < 0.5, "sampled image unrecognizable: rmse {rmse}");
}

#[test]
fn clean_runs_report_no_degradation() {
    for coupling in Coupling::all() {
        let mut spec = base_spec("clean");
        spec.coupling = coupling;
        let out = run_native(&spec).unwrap();
        assert!(out.degradation.is_clean());
        assert!(!out.report().contains("degraded"));
        // the empty policy starts no beater or supervisor thread and
        // collects its ranks without ever waking on a clock
        assert_eq!(out.counters.get("liveness_threads"), 0.0, "{coupling:?}");
        assert_eq!(out.counters.get("supervised_launches"), 0.0, "{coupling:?}");
    }
}

#[test]
fn intercore_simulation_ranks_send_their_blocks_and_nothing_else() {
    // The composite gathers cover the visualization ranks only: a
    // simulation rank's one message per step is its data block, and
    // those bytes reach `bytes_moved` through its link.
    let mut spec = base_spec("ic-sends");
    spec.coupling = Coupling::Intercore;
    let staged = Arc::new(stage_data(&spec, Default::default()).unwrap());
    let cx = RankCx::new(&spec, &staged, &PayloadPool::new());
    let r = spec.ranks;
    let ranks: Vec<(RankOutput, eth_transport::comm::TrafficCounters)> =
        std::thread::scope(|s| {
            let handles: Vec<_> = LocalFabric::new(2 * r)
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    let cx = &cx;
                    s.spawn(move || (local_role(cx, rank, r, &comm).unwrap(), comm.traffic()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
    for (rank, (out, traffic)) in ranks.iter().enumerate().take(r) {
        assert_eq!(traffic.messages_sent, spec.steps as u64, "sim rank {rank}");
        assert!(traffic.bytes_sent > 0, "sim rank {rank}");
        assert_eq!(out.bytes_sent, traffic.bytes_sent, "sim rank {rank}");
    }
    // the root keeps every frame; the other viz ranks send one
    // contribution per frame and nothing else
    assert_eq!(ranks[r].0.images.len(), spec.steps * spec.images_per_step);
    for (out, traffic) in &ranks[r + 1..] {
        assert_eq!(traffic.messages_sent, (spec.steps * spec.images_per_step) as u64);
        assert_eq!(out.bytes_sent, traffic.bytes_sent);
    }
}

#[test]
fn internode_disconnect_degrades_not_deadlocks() {
    // Sim rank 1's viz link dies after 2 messages and a quarter of the
    // remaining data traffic is dropped. The run must complete (inside
    // the deadline budget, not hang), produce every image slot, and
    // report the lost steps.
    let plan = FaultPlan::seeded(5)
        .with_disconnect(1, 2)
        .with_drop(0.25)
        .with_recv_deadline_ms(500);
    let spec = ExperimentSpec::builder("chaos-internode")
        .application(Application::Hacc { particles: 2_000 })
        .algorithm(Algorithm::GaussianSplat)
        .coupling(Coupling::Internode)
        .ranks(2)
        .steps(4)
        .image_size(32, 32)
        .fault_plan(plan)
        .build()
        .unwrap();
    let t0 = Instant::now();
    let out = run_native(&spec).unwrap();
    assert!(t0.elapsed() < Duration::from_secs(30), "run wedged");
    assert_eq!(out.images.len(), 4, "every image slot must fill");
    assert!(
        out.degradation.dropped_steps >= 1,
        "disconnect lost no steps: {:?}",
        out.degradation
    );
    assert!(out.degradation.disconnects >= 1, "{:?}", out.degradation);
    assert!(out.report().contains("degraded"));
}

#[test]
fn failed_internode_run_joins_its_ranks_and_leaves_no_layout_dir() {
    // No fault plan, so nothing is tolerated: the composite root fails
    // mid-run (its artifact directory is a regular file), which snaps
    // its links under the other ranks. The launcher must still join
    // everyone, report the error, and remove the layout directory.
    let blocker = std::env::temp_dir().join(format!("eth-blocker-{:x}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let mut spec = base_spec("layout-leak");
    spec.coupling = Coupling::Internode;
    spec.artifact_dir = Some(blocker.join("artifacts"));
    assert!(run_native(&spec).is_err(), "artifact write cannot succeed");
    std::fs::remove_file(&blocker).unwrap();
    let prefix = format!("eth-layout-layout-leak-{:x}-", std::process::id());
    let leaked: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect();
    assert!(leaked.is_empty(), "leaked layout dirs: {leaked:?}");
}

#[test]
fn internode_payload_corruption_is_detected_at_the_codec() {
    // Send-side corruption mangles real payload bytes; either codec must
    // reject every one of them at decode time (the checksum trailer, the
    // magic), so the corrupt counter reflects *detected* corruption, not
    // merely the injector's bookkeeping.
    for codec in [Codec::Lossless, Codec::Quantize] {
        let plan = FaultPlan::seeded(9).with_corrupt(0.6).with_recv_deadline_ms(500);
        let mut spec = base_spec("chaos-corrupt");
        spec.coupling = Coupling::Internode;
        spec.wire_compression = codec;
        spec.fault_plan = Some(plan);
        let out = run_native(&spec).unwrap();
        assert!(
            out.degradation.corrupt_payloads > 0,
            "no corruption detected under {codec:?}: {:?}",
            out.degradation
        );
        // the run still fills every image slot (degraded, not dead)
        assert_eq!(out.images.len(), 4, "{codec:?}");
    }
}

#[test]
fn a_payload_the_codec_rejects_is_blamed_on_its_sender() {
    let spec = base_spec("blame");
    let staged = Arc::new(stage_data(&spec, Default::default()).unwrap());
    let pool = PayloadPool::new();
    let block = staged.series.get(0, 0).unwrap();
    for codec in [Codec::Lossless, Codec::Quantize] {
        let mut spec = spec.clone();
        spec.coupling = Coupling::Intercore;
        spec.wire_compression = codec;
        let cx = RankCx::new(&spec, &staged, &pool);
        let fabric = LocalFabric::new(2);
        let (sim, viz) = (FabricLink::new(&fabric[0], 1), FabricLink::new(&fabric[1], 0));
        // a clean payload arrives whole
        sim.send(DATA_TAG_MIN, encode_block(&spec, &block, &pool)).unwrap();
        let got = drain(&cx, &viz, 0, DATA_TAG_MIN, &mut Degradation::default());
        assert_eq!(got.unwrap().unwrap().num_elements(), block.num_elements());
        // a body byte flipped (past the magic) or the tail cut off
        let clean = encode_block(&spec, &block, &pool).to_vec();
        let mut flipped = clean.clone();
        flipped[clean.len() / 2] ^= 0xFF;
        for (what, bad) in [("flipped", flipped), ("truncated", clean[..clean.len() - 3].to_vec())] {
            sim.send(DATA_TAG_MIN, Bytes::from(bad)).unwrap();
            match drain(&cx, &viz, 0, DATA_TAG_MIN, &mut Degradation::default()) {
                Err(CoreError::Transport(TransportError::Corrupt { peer: 0, .. })) => {}
                // a quantized body has no checksum: a flipped byte is a
                // wrong value, not a detectable fault
                Ok(Some(_)) if codec == Codec::Quantize && what == "flipped" => {}
                other => panic!("{what} under {codec:?}: {other:?}"),
            }
        }
    }
}

#[test]
fn failed_compute_leaves_memo_slot_retryable() {
    // A compute that errors must leave the slot empty so a retry can
    // populate it — this is what lets a campaign retry hit RunCaches
    // instead of poisoning the key for the rest of the sweep.
    let map: Mutex<HashMap<u32, Arc<MemoSlot<u64>>>> = Mutex::new(HashMap::new());
    let first = memoize(&map, 1, || Err(CoreError::Config("injected".into())));
    assert!(first.is_err());
    // retry succeeds and populates the slot (a miss, not a hit)
    let (v, hit) = memoize(&map, 1, || Ok(41)).unwrap();
    assert_eq!((*v, hit), (41, false));
    // and the third requester is served from cache
    let (v, hit) = memoize::<u64, _, _>(&map, 1, || {
        panic!("slot was not populated")
    })
    .unwrap();
    assert_eq!((*v, hit), (41, true));

    // A compute that panics poisons its slot's mutex with the slot still
    // empty; the campaign contains the panic, and the next requester of
    // the key must compute again instead of panicking on the poison.
    let panicked = std::panic::catch_unwind(|| {
        memoize::<u64, _, _>(&map, 2, || panic!("injected staging panic"))
    });
    assert!(panicked.is_err());
    let (v, hit) = memoize(&map, 2, || Ok(43)).unwrap();
    assert_eq!((*v, hit), (43, false));
    let (v, hit) = memoize::<u64, _, _>(&map, 2, || panic!("slot was not populated")).unwrap();
    assert_eq!((*v, hit), (43, true));
}

#[test]
fn fault_degradation_is_reproducible() {
    // Same seed, same plan => byte-identical fault schedule => the
    // same degradation record, run after run.
    let run = || {
        let plan = FaultPlan::seeded(77).with_drop(1.0).with_recv_deadline_ms(150);
        let mut spec = base_spec("chaos-repro");
        spec.coupling = Coupling::Intercore;
        spec.fault_plan = Some(plan);
        run_native(&spec).unwrap()
    };
    let a = run();
    let b = run();
    assert!(!a.degradation.is_clean(), "total drop must degrade");
    assert!(a.degradation.dropped_steps > 0);
    assert_eq!(
        a.degradation, b.degradation,
        "same seed degraded differently across runs"
    );
    // the composite still ran for every step
    assert_eq!(a.images.len(), b.images.len());
}

#[test]
fn supervised_run_times_out_instead_of_wedging() {
    // An absurdly small rank budget: the supervisor must convert the
    // overrun into a structured error, not block.
    let plan = FaultPlan::seeded(1)
        .with_rank_timeout_ms(1)
        .with_recv_deadline_ms(100);
    let mut spec = base_spec("tiny-budget");
    spec.fault_plan = Some(plan);
    match run_native(&spec) {
        Err(crate::error::CoreError::Rank(f)) => {
            assert!(f.to_string().contains("did not finish"), "{f}");
        }
        Err(other) => panic!("expected a rank failure, got {other}"),
        Ok(_) => {} // a very fast machine may finish inside 1 ms
    }
    // Every coupling is launched the same way, so the budget bounds the
    // pair couplings too — with no recovery policy. Each send is
    // delayed far past the budget, so these cannot finish inside it.
    for coupling in [Coupling::Intercore, Coupling::Internode] {
        let plan = FaultPlan::seeded(1)
            .with_delay(1.0, 400)
            .with_rank_timeout_ms(100);
        let mut spec = base_spec("slow-link");
        spec.coupling = coupling;
        spec.fault_plan = Some(plan);
        let t0 = Instant::now();
        match run_native(&spec) {
            Err(CoreError::Rank(f)) => {
                assert!(f.to_string().contains("did not finish"), "{coupling:?}: {f}")
            }
            Err(other) => panic!("{coupling:?}: expected a rank failure, got {other}"),
            Ok(_) => panic!("{coupling:?}: the rank budget was ignored"),
        }
        assert!(t0.elapsed() < Duration::from_millis(700), "{coupling:?} waited out the run");
    }
}

#[test]
fn cached_run_is_byte_identical_to_fresh() {
    let spec = base_spec("cache-eq");
    let fresh = run_native(&spec).unwrap();
    let caches = RunCaches::new();
    let cold = run_native_cached(&spec, &caches).unwrap();
    let warm = run_native_cached(&spec, &caches).unwrap();
    assert_eq!(fresh.images, cold.images, "cold cache changed the image");
    assert_eq!(fresh.images, warm.images, "warm cache changed the image");
    let stats = caches.stats();
    assert_eq!(stats.staging_misses, 1);
    assert_eq!(stats.staging_hits, 1);
    assert!((stats.staging_hit_rate() - 0.5).abs() < 1e-12);
}

/// One step of two ranks whose encoded blocks (~1.5 MB each) clear the
/// payload pool's floor: with one step no rank can run ahead, so the
/// pool's counts are exact.
fn pooled_spec(name: &str, coupling: Coupling) -> ExperimentSpec {
    let mut spec = ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 80_000 })
        .algorithm(Algorithm::VtkPoints)
        .ranks(2)
        .steps(1)
        .images_per_step(1)
        .image_size(32, 32)
        .build()
        .unwrap();
    spec.coupling = coupling;
    spec
}

#[test]
fn warm_pair_runs_encode_into_parked_buffers() {
    // Per step, each simulation rank leases the buffer it encodes into;
    // across a socket each visualization rank's reader leases the one it
    // receives into as well. Whether an internode receive lease finds the
    // sender's buffer already home is timing, so `fresh` is asserted only
    // where one buffer serves both ends (the pre-warmed test below covers
    // the socket); the counts of leases and returns are exact everywhere.
    for (coupling, per_run) in [(Coupling::Intercore, 2), (Coupling::Internode, 4)] {
        let spec = pooled_spec("pool-warm", coupling);
        let uncached = run_native(&spec).unwrap();
        let caches = RunCaches::new();
        let cold = run_native_cached(&spec, &caches).unwrap();
        let stats = caches.payloads.stats();
        assert_eq!((stats.leased, stats.returned), (per_run, per_run), "{coupling:?} cold");
        let fresh = stats.fresh;
        let warm = run_native_cached(&spec, &caches).unwrap();
        let stats = caches.payloads.stats();
        // as many leases again, all back again
        assert_eq!((stats.leased, stats.returned), (2 * per_run, 2 * per_run), "{coupling:?} warm");
        if coupling == Coupling::Intercore {
            // and no allocation
            assert_eq!((fresh, stats.fresh, stats.parked), (2, 2, 2), "{coupling:?} warm");
        }
        for out in [&cold, &warm] {
            assert_eq!(out.images, uncached.images, "{coupling:?}");
            assert_eq!(out.bytes_moved, uncached.bytes_moved, "{coupling:?}");
        }
    }
}

#[test]
fn a_pool_prewarmed_with_two_buffers_per_rank_serves_every_internode_lease() {
    // 2R parked buffers, each larger than any block: the R encode leases
    // and the R receive leases of visualization ranks 2 and 3 all find
    // one, however the run interleaves, so none is fresh.
    let spec = pooled_spec("pool-prewarmed", Coupling::Internode);
    let uncached = run_native(&spec).unwrap();
    let caches = RunCaches::new();
    let prewarm: Vec<_> = (0..2 * spec.ranks)
        .map(|_| caches.payloads.lease(4 << 20))
        .collect();
    drop(prewarm);
    let before = caches.payloads.stats();
    assert_eq!(before.parked, 2 * spec.ranks);
    let out = run_native_cached(&spec, &caches).unwrap();
    let stats = caches.payloads.stats();
    assert_eq!(stats.leased - before.leased, 2 * spec.ranks as u64);
    assert_eq!(stats.fresh, before.fresh, "a lease allocated");
    assert_eq!(stats.returned, stats.leased);
    assert_eq!(out.images, uncached.images);
    assert_eq!(out.bytes_moved, uncached.bytes_moved);
}

#[test]
fn an_intercore_blocks_lease_comes_back_only_after_the_block_drops() {
    // The viz rank's block is a view of the payload the simulation
    // rank encoded into its lease: the buffer goes home when the
    // rendered block drops, not at decode.
    let spec = pooled_spec("pool-view", Coupling::Intercore);
    let staged = Arc::new(stage_data(&spec, Default::default()).unwrap());
    let pool = PayloadPool::new();
    let cx = RankCx::new(&spec, &staged, &pool);
    let block = staged.series.get(0, 0).unwrap();
    let fabric = LocalFabric::new(2);
    let (sim, viz) = (FabricLink::new(&fabric[0], 1), FabricLink::new(&fabric[1], 0));
    sim.send(DATA_TAG_MIN, encode_block(&spec, &block, &pool))
        .unwrap();
    let mut deg = Degradation::default();
    let got = drain(&cx, &viz, 0, DATA_TAG_MIN, &mut deg).unwrap().unwrap();
    assert_eq!(&got, &*block);
    let stats = pool.stats();
    assert_eq!((stats.leased, stats.returned), (1, 0), "returned at decode");
    drop(got);
    let stats = pool.stats();
    assert_eq!((stats.leased, stats.returned, stats.parked), (1, 1, 1));
}

#[test]
fn a_dropped_data_message_still_returns_its_lease() {
    // Every block is dropped inside the chaos wrapper: nothing decodes
    // a payload, nothing calls the pool, and every buffer is back.
    let mut spec = pooled_spec("pool-chaos", Coupling::Intercore);
    spec.steps = 2;
    spec.fault_plan = Some(FaultPlan::seeded(77).with_drop(1.0).with_recv_deadline_ms(150));
    let caches = RunCaches::new();
    let out = run_native_cached(&spec, &caches).unwrap();
    assert!(out.degradation.dropped_steps > 0, "{:?}", out.degradation);
    let stats = caches.payloads.stats();
    assert_eq!((stats.leased, stats.returned), (4, 4));
    assert!(stats.parked >= 1, "a dropped message's buffer was freed, not parked");
}

#[test]
fn baseline_renders_once_across_ratio_and_coupling_axes() {
    let caches = RunCaches::new();
    let mut spec = base_spec("base");
    spec.sampling_ratio = 0.5;
    let b1 = caches.baseline_images(&spec).unwrap();
    spec.sampling_ratio = 0.25;
    spec.coupling = Coupling::Intercore;
    let b2 = caches.baseline_images(&spec).unwrap();
    assert!(Arc::ptr_eq(&b1, &b2), "second lookup must reuse the render");
    let stats = caches.stats();
    assert_eq!(stats.baseline_misses, 1);
    assert_eq!(stats.baseline_hits, 1);
    // The cached baseline is exactly the full-fidelity run's output.
    let full = run_native(&base_spec("base")).unwrap();
    assert_eq!(*b1, full.images);
}

/// A recovery policy with a fast heartbeat so tests detect deaths in
/// tens of milliseconds instead of the production default.
fn fast_recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        heartbeat: HeartbeatPolicy {
            interval_ms: 10,
            miss_budget: 3,
        },
        adopt: true,
    }
}

fn kill_spec(name: &str, coupling: Coupling, victim: usize, step: usize) -> ExperimentSpec {
    let mut spec = base_spec(name);
    spec.coupling = coupling;
    spec.steps = 4;
    spec.recovery = Some(fast_recovery());
    spec.fault_plan = Some(FaultPlan::seeded(7).with_kill_rank_at_step(victim, step));
    spec
}

#[test]
fn intercore_kill_is_adopted_and_images_match_the_healthy_run() {
    let mut healthy = base_spec("ic-kill");
    healthy.coupling = Coupling::Intercore;
    healthy.steps = 4;
    let reference = run_native(&healthy).unwrap();

    let out = run_native(&kill_spec("ic-kill", Coupling::Intercore, 1, 2)).unwrap();
    assert_eq!(out.degradation.rank_losses, 1, "{:?}", out.degradation);
    assert_eq!(out.degradation.adopted_partitions, 1);
    assert_eq!(out.images.len(), reference.images.len());
    // Adoption re-renders the dead rank's partition from the shared
    // staged series, so every image — not just the pre-kill ones — is
    // byte-identical to the run where nobody died.
    for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
        assert_eq!(a, b, "image {i} diverged after adoption");
    }
    assert_eq!(out.recovery_latency_s.len(), 1);
    assert!(
        out.recovery_latency_s[0] > 0.0 && out.recovery_latency_s[0] < 30.0,
        "implausible recovery latency {:?}",
        out.recovery_latency_s
    );
}

#[test]
fn internode_kill_is_adopted_and_prekill_images_are_identical() {
    let kill_at = 1;
    let mut healthy = base_spec("in-kill");
    healthy.coupling = Coupling::Internode;
    healthy.steps = 4;
    let reference = run_native(&healthy).unwrap();

    let out = run_native(&kill_spec("in-kill", Coupling::Internode, 2, kill_at)).unwrap();
    assert_eq!(out.degradation.rank_losses, 1, "{:?}", out.degradation);
    assert_eq!(out.degradation.adopted_partitions, 1);
    // the run completes with a full image set despite the death
    assert_eq!(out.images.len(), reference.images.len());
    // steps before the kill cannot have been touched by recovery
    let spec = &reference.spec;
    for i in 0..kill_at * spec.images_per_step {
        assert_eq!(reference.images[i], out.images[i], "pre-kill image {i} diverged");
    }
    assert_eq!(out.recovery_latency_s.len(), 1);
    assert!(out.recovery_latency_s[0] > 0.0);
}

#[test]
fn kill_without_adoption_completes_dark() {
    let mut spec = kill_spec("no-adopt", Coupling::Intercore, 0, 1);
    spec.recovery = Some(RecoveryPolicy {
        adopt: false,
        ..fast_recovery()
    });
    let out = run_native(&spec).unwrap();
    assert_eq!(out.degradation.rank_losses, 1);
    assert_eq!(out.degradation.adopted_partitions, 0);
    assert!(
        out.degradation.missing_contributions > 0,
        "the dead partition's frames must be counted as holes: {:?}",
        out.degradation
    );
    // still a full-length image sequence; the hole is composited around
    assert_eq!(out.images.len(), 4 * out.spec.images_per_step);
}

#[test]
fn recovery_policy_without_faults_changes_nothing() {
    use crate::config::{MigrationPattern, MigrationPlan};
    let reference = run_native(&base_spec("rec-noop")).unwrap();
    // A handoff plan none of whose handoffs ever comes due (validation
    // rejects it, so these two inputs enter below `run_native`): the
    // policy has every part switched on and nothing to do.
    let never = MigrationPlan::new(MigrationPattern::Sudden { from: 0, to: 1, at_step: 99 });
    for (coupling, migration) in [
        (Coupling::Tight, None),
        (Coupling::Intercore, None),
        (Coupling::Internode, None),
        (Coupling::Intercore, Some(never)),
        (Coupling::Internode, Some(never)),
    ] {
        let mut spec = base_spec("rec-noop");
        spec.coupling = coupling;
        spec.recovery = Some(fast_recovery());
        spec.migration = migration;
        let out = run_recorded(&spec, &PayloadPool::new(), |spec| {
            Ok(Arc::new(stage_data(spec, Default::default())?))
        })
        .unwrap();
        assert!(out.degradation.is_clean(), "{coupling:?}: {:?}", out.degradation);
        assert_eq!(out.recovery_latency_s.len(), 0);
        assert_eq!(out.migration_disruption_s.len(), 0);
        assert_eq!(reference.images, out.images, "policy changed pixels under {coupling:?}");
        // liveness did start (contrast `clean_runs_report_no_degradation`)
        assert!(out.counters.get("liveness_threads") > 0.0, "{coupling:?}");
        assert_eq!(out.counters.get("supervised_launches"), 1.0, "{coupling:?}");
    }
}

/// Recovery policy for the migration tests: same fast 10 ms beat, but
/// a miss budget wide enough that a beater thread starved by a loaded
/// parallel test run is not falsely declared dead (a spurious death
/// would nondeterministically abort a planned handoff).
fn sturdy_recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        heartbeat: HeartbeatPolicy {
            interval_ms: 10,
            miss_budget: 30,
        },
        adopt: true,
    }
}

fn migrating(mut spec: ExperimentSpec, pattern: crate::config::MigrationPattern) -> ExperimentSpec {
    spec.recovery = Some(sturdy_recovery());
    spec.migration = Some(crate::config::MigrationPlan::new(pattern));
    spec
}

#[test]
fn intercore_sudden_migration_is_byte_identical_and_counted() {
    use crate::config::MigrationPattern;
    let mut healthy = base_spec("mig-sudden");
    healthy.coupling = Coupling::Intercore;
    healthy.steps = 4;
    let reference = run_native(&healthy).unwrap();

    let spec = migrating(
        healthy.clone(),
        MigrationPattern::Sudden { from: 1, to: 2, at_step: 2 },
    );
    let out = run_native(&spec).unwrap();
    assert_eq!(out.degradation.migrations, 1, "{:?}", out.degradation);
    assert_eq!(out.degradation.migration_failures, 0);
    assert_eq!(out.degradation.rank_losses, 0);
    assert_eq!(out.images.len(), reference.images.len());
    // The migrated partition renders from the shared staged series and
    // lands in the same composite slot: no frame drops, no pixel moves.
    for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
        assert_eq!(a, b, "image {i} diverged under migration");
    }
    assert_eq!(out.migration_disruption_s.len(), 1);
    assert!(out.migration_disruption_s[0] >= 0.0);
    assert!(out.report().contains("migrated"));
}

#[test]
fn internode_fluid_and_batched_migrations_are_byte_identical() {
    use crate::config::MigrationPattern;
    let mut healthy = base_spec("mig-fluid");
    healthy.coupling = Coupling::Internode;
    healthy.steps = 4;
    healthy.ranks = 4;
    healthy.viz_ranks = Some(2);
    let reference = run_native(&healthy).unwrap();

    for (tag, pattern) in [
        ("fluid", MigrationPattern::Fluid { from: 0, to: 1, start_step: 1 }),
        (
            "batched",
            MigrationPattern::BatchedFluid { from: 0, to: 1, start_step: 1, batch: 2 },
        ),
    ] {
        let out = run_native(&migrating(healthy.clone(), pattern)).unwrap();
        // viz 0 initially owns partitions {0, 2}: two handoffs
        assert_eq!(out.degradation.migrations, 2, "{tag}: {:?}", out.degradation);
        assert_eq!(out.degradation.migration_failures, 0, "{tag}");
        assert_eq!(out.images.len(), reference.images.len(), "{tag}");
        for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
            assert_eq!(a, b, "{tag}: image {i} diverged under migration");
        }
        assert_eq!(out.migration_disruption_s.len(), 2, "{tag}");
    }
}

#[test]
fn internode_rescale_grows_and_shrinks_without_dropping_a_frame() {
    use crate::config::MigrationPattern;
    let mut healthy = base_spec("mig-rescale");
    healthy.coupling = Coupling::Internode;
    healthy.steps = 4;
    healthy.ranks = 4;
    healthy.viz_ranks = Some(2);
    let reference = run_native(&healthy).unwrap();

    for (tag, viz, target) in [("grow", 2usize, 3usize), ("shrink", 3, 2)] {
        let mut spec = healthy.clone();
        spec.viz_ranks = Some(viz);
        let spec = migrating(spec, MigrationPattern::Rescale { viz_ranks: target, at_step: 2 });
        let out = run_native(&spec).unwrap();
        let expected = (0..4).filter(|p| p % viz != p % target).count() as u64;
        assert_eq!(out.degradation.migrations, expected, "{tag}: {:?}", out.degradation);
        assert_eq!(out.degradation.migration_failures, 0, "{tag}");
        assert_eq!(out.images.len(), reference.images.len(), "{tag}");
        for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
            assert_eq!(a, b, "{tag}: image {i} diverged under rescale");
        }
    }
}

#[test]
fn a_grown_viz_application_is_billed_on_nodes_of_its_own() {
    use crate::config::MigrationPattern;
    // The launcher seats the rescale target's three viz ranks from the
    // start, so the modeled internode allocation is 4 + 3 nodes, and a
    // grown viz rank's spans bill a node of its own, not a simulation node.
    let mut spec = base_spec("grow-nodes");
    spec.coupling = Coupling::Internode;
    spec.steps = 4;
    spec.ranks = 4;
    spec.viz_ranks = Some(2);
    let spec = migrating(spec, MigrationPattern::Rescale { viz_ranks: 3, at_step: 2 });
    assert_eq!(spec.max_viz_count(), 3);
    let out = run_native(&spec).unwrap();
    assert_eq!(out.degradation.migrations, 2, "{:?}", out.degradation);
    assert_eq!(out.metrics.nodes, 4 + 3);
}

#[test]
fn migration_racing_a_death_resolves_deterministically() {
    use crate::config::MigrationPattern;
    // Death first: the owning sim rank is killed the step before the
    // handoff. Death wins — the handoff degrades to "no migration
    // happened" — and adoption keeps every image byte-identical.
    let run = || {
        let mut spec = kill_spec("mig-race", Coupling::Intercore, 1, 1);
        spec.recovery = Some(sturdy_recovery());
        spec.migration = Some(crate::config::MigrationPlan::new(MigrationPattern::Sudden {
            from: 1,
            to: 0,
            at_step: 2,
        }));
        run_native(&spec).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.degradation.migrations, 0, "{:?}", a.degradation);
    assert_eq!(a.degradation.migration_failures, 1);
    assert_eq!(a.degradation.rank_losses, 1);
    assert_eq!(a.degradation, b.degradation, "racing death was nondeterministic");
    assert_eq!(a.images, b.images, "racing death changed pixels across runs");

    let mut healthy = base_spec("mig-race");
    healthy.coupling = Coupling::Intercore;
    healthy.steps = 4;
    let reference = run_native(&healthy).unwrap();
    assert_eq!(a.images, reference.images, "failed handoff + adoption dropped a frame");

    // Death after the handoff: the migration commits, the new owner
    // rides out the death, and the drainer still accounts the loss.
    let mut spec = kill_spec("mig-race", Coupling::Intercore, 1, 3);
    spec.recovery = Some(sturdy_recovery());
    spec.migration = Some(crate::config::MigrationPlan::new(MigrationPattern::Sudden {
        from: 1,
        to: 0,
        at_step: 1,
    }));
    let late = run_native(&spec).unwrap();
    assert_eq!(late.degradation.migrations, 1, "{:?}", late.degradation);
    assert_eq!(late.degradation.migration_failures, 0);
    assert_eq!(late.degradation.rank_losses, 1);
    assert_eq!(late.images, reference.images, "committed handoff diverged under a late death");
}

/// The handshakes of a two-viz-rank intercore run, each rank on its own
/// thread of a two-rank fabric, stepping through nothing but
/// [`migrate_handshakes`]: viz 0 sources, viz 1 targets. `edit_source`
/// rewrites the source's copy of the first handoff (the target keeps the
/// spec's), and the target sleeps `target_delay` before its first step.
/// Returns each rank's final owners and degradation.
fn handshakes_on_two_ranks(
    spec: &ExperimentSpec,
    edit_source: impl FnOnce(&mut Handoff),
    target_delay: Duration,
) -> Vec<(Vec<usize>, Degradation)> {
    let staged = Arc::new(stage_data(spec, Default::default()).unwrap());
    let pool = PayloadPool::new();
    let mut source = RankCx::new(spec, &staged, &pool);
    edit_source(&mut Arc::get_mut(&mut source).unwrap().policy.handoffs[0]);
    let cxs = [source, RankCx::new(spec, &staged, &pool)];
    std::thread::scope(|s| {
        let ranks: Vec<_> = LocalFabric::new(2)
            .into_iter()
            .zip(&cxs)
            .map(|(comm, cx)| {
                s.spawn(move || {
                    if comm.rank() == 1 {
                        std::thread::sleep(target_delay);
                    }
                    let fabric = VizFabric {
                        comm: &comm,
                        base: 0,
                        on_board: false,
                    };
                    let mut owners: Vec<usize> =
                        (0..spec.ranks).map(|p| spec.initial_owner(p)).collect();
                    let mut deg = Degradation::default();
                    for step in 0..spec.steps {
                        migrate_handshakes(cx, fabric, step, &mut owners, &mut deg, &mut Vec::new())
                            .unwrap();
                    }
                    (owners, deg)
                })
            })
            .collect();
        ranks.into_iter().map(|rank| rank.join().unwrap()).collect()
    })
}

fn two_rank_handoff() -> ExperimentSpec {
    let mut spec = base_spec("verdict");
    spec.coupling = Coupling::Intercore;
    spec.ranks = 2;
    spec.steps = 3;
    migrating(spec, crate::config::MigrationPattern::Sudden { from: 0, to: 1, at_step: 1 })
}

#[test]
fn a_slow_migration_target_still_commits() {
    // The source waits for the target's verdict however late the target
    // reaches its handshake; only the run deadline bounds the wait.
    let spec = two_rank_handoff();
    assert_eq!(spec.migration_handoffs(), vec![Handoff { partition: 0, from: 0, to: 1, step: 1 }]);
    let ranks = handshakes_on_two_ranks(&spec, |_| {}, Duration::from_millis(1_200));
    for (owners, _) in &ranks {
        assert_eq!(owners, &[1, 1], "both ends must agree the partition moved");
    }
    assert_eq!(ranks[0].1.migrations, 1, "{:?}", ranks[0].1);
    assert_eq!(ranks[0].1.migration_failures, 0);
}

#[test]
fn a_migration_offer_off_the_schedule_is_refused() {
    // The source's copy of the schedule names another partition, or a
    // later step: the target refuses the offer it receives.
    let spec = two_rank_handoff();
    let refused = |what: &str, edit: fn(&mut Handoff)| {
        let ranks = handshakes_on_two_ranks(&spec, edit, Duration::ZERO);
        for (owners, _) in &ranks {
            assert_eq!(owners, &[0, 1], "{what}: a refused offer moved ownership");
        }
        assert_eq!(ranks[0].1.migrations, 0, "{what}: {:?}", ranks[0].1);
        assert_eq!(ranks[0].1.migration_failures, 1, "{what}");
    };
    refused("partition", |h| h.partition = 1);
    refused("step", |h| h.step = 2);
}

#[test]
fn budgeted_run_is_byte_identical_and_stays_under_budget() {
    let full = run_native(&base_spec("budget")).unwrap();
    let mut spec = base_spec("budget");
    let budget: u64 = 32_000; // far below the ~6 staged blocks' total
    spec.resources = Some(crate::config::ResourcePolicy::with_memory_budget(budget));
    let lean = run_native(&spec).unwrap();
    assert_eq!(full.images, lean.images, "budget changed the image");
    // The byte-accountant must show real spill traffic and a peak
    // residency that never exceeded the budget, even transiently.
    let staged = stage_data(&spec, Default::default()).unwrap();
    let stats = staged.series.stats();
    assert!(stats.spills > 0, "budget too large to exercise spilling");
    assert!(
        stats.peak_resident_bytes <= budget,
        "peak {} exceeded budget {budget}",
        stats.peak_resident_bytes
    );
    staged.series.assert_within_budget();
    // Every block streams back byte-identical from its file.
    let unbudgeted = stage_data(&base_spec("budget"), Default::default()).unwrap();
    for step in 0..spec.steps {
        for rank in 0..spec.ranks {
            let a = staged.series.get(step, rank).unwrap();
            let b = unbudgeted.series.get(step, rank).unwrap();
            assert_eq!(
                eth_data::io::binary::encode(&a),
                eth_data::io::binary::encode(&b),
                "spilled block ({step},{rank}) diverged"
            );
        }
    }
}

#[test]
fn a_bad_block_on_disk_costs_one_frame_under_every_coupling() {
    let mut spec = base_spec("bad-block");
    spec.steps = 3;
    let reference = run_native(&spec).unwrap();
    // A budget below one block: every block lives in its series file
    // and every fetch reads it back.
    spec.resources = Some(crate::config::ResourcePolicy::with_memory_budget(1));
    let per_step = spec.images_per_step;
    for coupling in Coupling::all() {
        spec.coupling = coupling;
        let staged = Arc::new(stage_data(&spec, Default::default()).unwrap());
        let victim = staged.series.root().join("step_0001").join("rank_0000.ebd");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let out = run_recorded(&spec, &PayloadPool::new(), |_| Ok(staged.clone())).unwrap();
        assert_eq!(out.counters.get("proxy_skipped_steps"), 1.0, "{coupling:?}");
        // the hole is counted once per frame at the root, and nothing else moves
        let holes = Degradation {
            missing_contributions: per_step as u64,
            ..Default::default()
        };
        assert_eq!(out.degradation, holes, "{coupling:?}");
        assert_eq!(out.images.len(), reference.images.len(), "{coupling:?}");
        for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
            if i / per_step == 1 {
                assert_ne!(a, b, "{coupling:?}: image {i} lost no partition");
            } else {
                assert_eq!(a, b, "{coupling:?}: image {i} of a clean step diverged");
            }
        }
    }
}

#[test]
fn lossless_wire_compression_is_byte_identical_across_couplings() {
    let tight = run_native(&base_spec("wire")).unwrap();
    let blocks = (tight.spec.ranks * tight.spec.steps) as f64;
    for coupling in [Coupling::Intercore, Coupling::Internode] {
        for codec in [Codec::Lossless, Codec::Quantize] {
            let mut spec = base_spec("wire");
            spec.coupling = coupling;
            spec.wire_compression = codec;
            let out = run_native(&spec).unwrap();
            let case = format!("{codec:?} under {coupling:?}");
            // one wire path: one encode and one decode span per block, and
            // the raw and on-wire byte counters, whatever the codec
            for phase in ["encode", "decode"] {
                let spans = out.counters.get(&format!("phase_{phase}_spans"));
                assert_eq!(spans, blocks, "{phase} spans, {case}");
            }
            let raw = out.counters.get("wire_raw_bytes");
            let sent = out.counters.get("wire_compressed_bytes");
            assert_eq!(sent, out.counters.get("phase_encode_bytes"), "{case}");
            assert!(raw > 0.0, "{case}");
            match codec {
                Codec::Lossless => {
                    assert_eq!(sent, raw, "{case}");
                    assert_eq!(tight.images, out.images, "{case} changed the image");
                }
                Codec::Quantize => {
                    assert!(sent < raw, "{case} shrank nothing: {sent} of {raw}");
                    // the lossy codec still runs end-to-end and stays close
                    for (a, b) in tight.images.iter().zip(&out.images) {
                        let rmse = a.rmse(b).unwrap();
                        assert!(rmse < 0.1, "{case} drifted too far: rmse {rmse}");
                    }
                }
            }
        }
    }
}

#[test]
fn injected_alloc_failure_surfaces_as_out_of_memory() {
    let mut spec = base_spec("alloc-fail");
    spec.fault_plan = Some(FaultPlan::default().with_alloc_fail_at_stage(3));
    let err = match run_native(&spec) {
        Ok(_) => panic!("injection must fail the run"),
        Err(e) => e,
    };
    match err {
        CoreError::OutOfMemory(m) => {
            assert!(m.contains("alloc_fail_at_stage"), "{m}");
        }
        other => panic!("expected OutOfMemory, got {other}"),
    }
    // The injection is positional: past the staged-block count it is
    // inert and the run completes normally.
    spec.fault_plan = Some(FaultPlan::default().with_alloc_fail_at_stage(10_000));
    run_native(&spec).unwrap();
}
