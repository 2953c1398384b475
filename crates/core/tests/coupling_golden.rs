//! Parent-anchored golden table for the coupling step loop.
//!
//! `fixtures/coupling_golden.txt` was generated at the commit *before* the
//! nine coupling loops in `harness.rs` were collapsed into one sim role and
//! one viz role (PR 13's parent, f778ce3), by running [`print_rows`] there
//! five times — all 16 rows repeated byte for byte. Its second block (7
//! rows: payload corruption, a link cut from either end, tight under a
//! lossy plan) was generated the same way at PR 15's parent, acac922,
//! before the two chaos wrappers became one and the six launchers one. The
//! current path must reproduce every row exactly: each image's CRC-32 (raw
//! little-endian f32 pixels), every [`Degradation`] counter, and
//! `bytes_moved`. Timing fields are excluded — they are the only part of an
//! outcome that may differ.
//!
//! The table was regenerated once since, after a64bf82, when the composite
//! became one path (partition-framed contributions over one gather, holes
//! counted only at the root): the image CRCs of all 23 rows stayed
//! byte-identical to that commit's table, and the fixture's header lists
//! what moved in `bytes=`, `dropped=` and `missing=` and why. Its
//! `bytes=` counts were re-counted once more when blocks became `EBD3`
//! (arrays padded to their alignment); the fixture's header gives each
//! changed value as the pad bytes of the blocks that row moved. The six
//! migration rows' `bytes=` were re-counted once more when a handoff
//! stopped shipping a checkpoint (offer → ack); the header gives each as
//! the state bytes that row no longer sends. Every non-tight row's
//! `bytes=` was re-counted once more when a block started to cross as its
//! geometry plus the field the pipeline colours by; the header gives each
//! as the `id` and `velocity` bytes of the blocks that row moved. The two
//! `kill-dark` rows left with the dark path (a killed rank's partition is
//! always adopted); the other 21 rows are unedited, save that the
//! `adopted=` column left with the counter that repeated `losses=`. The
//! `ic-corrupt` and `in-corrupt` rows were regenerated once more when the
//! receive side stopped making up corruptions for intact payloads; the
//! header lists every changed value with its `(rank, step)`, and the other
//! 19 rows are unedited.
//!
//! To regenerate (only ever at a commit whose output you trust):
//! `cargo test -p eth-core --test coupling_golden -- --ignored --nocapture print_rows`
//! and copy the lines between the `BEGIN`/`END` markers.

use eth_core::{
    run_native, Algorithm, Application, Coupling, ExperimentSpec, MigrationPattern, MigrationPlan,
};
use eth_transport::FaultPlan;

const GOLDEN: &str = include_str!("fixtures/coupling_golden.txt");

fn base(name: &str, coupling: Coupling, ranks: usize) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 3_000 })
        .algorithm(Algorithm::GaussianSplat)
        .coupling(coupling)
        .ranks(ranks)
        .steps(4)
        .images_per_step(2)
        .image_size(40, 40)
        .build()
        .unwrap()
}

fn migrating(mut spec: ExperimentSpec, pattern: MigrationPattern) -> ExperimentSpec {
    spec.migration = Some(MigrationPlan::new(pattern));
    spec
}

fn specs() -> Vec<ExperimentSpec> {
    let mut out = Vec::new();
    for (tag, coupling) in [("ic", Coupling::Intercore), ("in", Coupling::Internode)] {
        let named = |what: &str| base(&format!("{tag}-{what}"), coupling, 3);
        out.push(named("plain"));

        let mut drop = named("drop");
        drop.fault_plan = Some(
            FaultPlan::seeded(5)
                .with_drop(0.4)
                .with_recv_deadline_ms(150),
        );
        out.push(drop);

        let mut kill = named("kill-adopt");
        kill.fault_plan = Some(FaultPlan::seeded(7).with_kill_rank_at_step(1, 2));
        out.push(kill);

        out.push(migrating(
            named("sudden"),
            MigrationPattern::Sudden {
                from: 1,
                to: 2,
                at_step: 2,
            },
        ));
    }
    out.push(migrating(
        base("ic-fluid", Coupling::Intercore, 3),
        MigrationPattern::Fluid {
            from: 0,
            to: 1,
            start_step: 1,
        },
    ));

    // Asymmetric internode: 4 sim ranks onto 2 (or 3) viz ranks, so a viz
    // rank co-owns partitions and the rescale has partitions to move.
    let asym = |what: &str, viz: usize| {
        let mut spec = base(&format!("in-{what}"), Coupling::Internode, 4);
        spec.viz_ranks = Some(viz);
        spec
    };
    out.push(asym("asym", 2));
    out.push(migrating(
        asym("fluid", 2),
        MigrationPattern::Fluid {
            from: 0,
            to: 1,
            start_step: 1,
        },
    ));
    out.push(migrating(
        asym("grow", 2),
        MigrationPattern::Rescale {
            viz_ranks: 3,
            at_step: 2,
        },
    ));
    out.push(migrating(
        asym("shrink", 3),
        MigrationPattern::Rescale {
            viz_ranks: 2,
            at_step: 2,
        },
    ));

    // A plain tight run; the name is the row's, from when recovery was a
    // setting a tight spec could carry.
    out.push(base("tight-recovery", Coupling::Tight, 3));

    // The rest of the chaos path (second fixture block, generated at acac922).
    for (tag, coupling) in [("ic", Coupling::Intercore), ("in", Coupling::Internode)] {
        let mut corrupt = base(&format!("{tag}-corrupt"), coupling, 3);
        corrupt.fault_plan = Some(FaultPlan::seeded(9).with_corrupt(0.5));
        out.push(corrupt);
    }
    // A link cut after two messages, once from each end. A plan names the
    // *peer* of the endpoint that enacts it. Intercore: simulation rank 1
    // talks to fabric rank 3 + 1, which talks back to 1. Internode numbers
    // the two applications separately, so 4 simulation ranks drain into 2
    // visualization ranks: peer 0 cuts simulation ranks 0 and 2 at the send
    // (and rank 0's link at the receive as well), peer 3 only the receive.
    for (name, coupling, ranks, viz, peer) in [
        ("ic-cut-sim", Coupling::Intercore, 3, None, 4),
        ("ic-cut-viz", Coupling::Intercore, 3, None, 1),
        ("in-cut-sim", Coupling::Internode, 4, Some(2), 0),
        ("in-cut-viz", Coupling::Internode, 4, Some(2), 3),
    ] {
        let mut cut = base(name, coupling, ranks);
        cut.viz_ranks = viz;
        cut.fault_plan = Some(
            FaultPlan::seeded(3)
                .with_disconnect(peer, 2)
                .with_recv_deadline_ms(150),
        );
        out.push(cut);
    }
    // Tight has no pair link: a lossy plan has nothing to act on.
    let mut tight = base("tight-drop", Coupling::Tight, 3);
    tight.fault_plan = Some(
        FaultPlan::seeded(5)
            .with_drop(0.4)
            .with_recv_deadline_ms(150),
    );
    out.push(tight);
    out
}

fn row(spec: &ExperimentSpec) -> String {
    let out = run_native(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let d = &out.degradation;
    let crcs: Vec<String> = out
        .images
        .iter()
        .map(|image| {
            let raw: Vec<u8> = image
                .pixels()
                .iter()
                .flat_map(|p| [p.x, p.y, p.z])
                .flat_map(f32::to_le_bytes)
                .collect();
            format!("{:08x}", eth_data::crc::crc32(&raw))
        })
        .collect();
    format!(
        "{} bytes={} dropped={} degraded={} timeouts={} disconnects={} corrupt={} \
         losses={} missing={} migrations={} migration_failures={} images={}",
        spec.name,
        out.bytes_moved,
        d.dropped_steps,
        d.degraded_steps,
        d.timeouts,
        d.disconnects,
        d.corrupt_payloads,
        d.rank_losses,
        d.missing_contributions,
        d.migrations,
        d.migration_failures,
        crcs.join(","),
    )
}

#[test]
fn unified_step_loop_reproduces_the_parent_table() {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let specs = specs();
    assert_eq!(golden.len(), specs.len(), "one fixture row per spec");
    let mut mismatches = Vec::new();
    for (spec, want) in specs.iter().zip(&golden) {
        let got = row(spec);
        if got != *want {
            mismatches.push(format!("want {want}\n got {got}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
#[ignore = "fixture generator: run at the trusted commit, see module docs"]
fn print_rows() {
    println!("BEGIN");
    for spec in &specs() {
        println!("{}", row(spec));
    }
    println!("END");
}
