//! Sort-last image compositing across ranks.
//!
//! In a distributed ETH run every rank renders its local data block into a
//! full-size framebuffer; the final image is the per-pixel nearest fragment
//! across ranks. Two composition schedules are provided:
//!
//! * [`composite_direct`] — sequential fold (what a gather-to-root does),
//! * [`composite_binary_swap`] — the log₂(P) pairwise-exchange schedule used
//!   on real clusters. Both produce identical images; binary-swap also
//!   reports the bytes each round would move, which feeds the cluster
//!   model's communication term (and the VTK strong-scaling degradation of
//!   Figure 15).

use crate::framebuffer::Framebuffer;

/// Communication accounting for a compositing schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompositeStats {
    /// Pairwise exchange rounds (0 for a single buffer).
    pub rounds: u32,
    /// Total bytes that would cross the interconnect.
    pub bytes_exchanged: u64,
    /// Number of per-pixel merge operations performed.
    pub merge_ops: u64,
    /// Slots nobody contributed to ([`composite_owned`]: dead or silent
    /// ranks whose frames never arrived). Non-zero marks a degraded frame.
    pub missing_contributions: u64,
}

/// Bytes one full framebuffer occupies on the wire (RGB f32 + depth f32).
fn framebuffer_bytes(fb: &Framebuffer) -> u64 {
    (fb.width() * fb.height()) as u64 * 16
}

/// Reject empty or mixed-size inputs before any merging, so a mismatch
/// cannot charge partial `merge_ops`/`bytes_exchanged` (or mutate buffers)
/// on the way to the panic.
fn validate_uniform(buffers: &[Framebuffer]) {
    assert!(!buffers.is_empty(), "nothing to composite");
    let (w, h) = (buffers[0].width(), buffers[0].height());
    for (i, fb) in buffers.iter().enumerate() {
        assert!(
            fb.width() == w && fb.height() == h,
            "framebuffer {i} is {}x{} but buffer 0 is {w}x{h}: \
             all composited buffers must share one image size",
            fb.width(),
            fb.height(),
        );
    }
}

/// Fold all buffers into the first (direct-send / gather-to-root schedule).
///
/// Panics if `buffers` is empty or sizes mismatch (checked up front,
/// before any stats are charged).
pub fn composite_direct(mut buffers: Vec<Framebuffer>) -> (Framebuffer, CompositeStats) {
    let mut span = eth_obs::span(eth_obs::Phase::Composite);
    span.set_bytes(buffers.iter().map(framebuffer_bytes).sum());
    validate_uniform(&buffers);
    let mut acc = buffers.remove(0);
    let mut stats = CompositeStats::default();
    for fb in &buffers {
        stats.bytes_exchanged += framebuffer_bytes(fb);
        stats.merge_ops += (fb.width() * fb.height()) as u64;
        acc.composite_in(fb);
    }
    (acc, stats)
}

/// Binary-swap compositing.
///
/// Ranks pair up over log₂(P) rounds; in each round a pair splits the image
/// in half, exchanges the halves, and merges. We execute the schedule
/// faithfully (operating on image halves) so the byte counts match the real
/// algorithm: every round moves P × (pixels / 2^round) × 16 bytes in total.
/// Non-power-of-two rank counts are handled by folding the stragglers in
/// directly first, as practical implementations do.
pub fn composite_binary_swap(buffers: Vec<Framebuffer>) -> (Framebuffer, CompositeStats) {
    let mut span = eth_obs::span(eth_obs::Phase::Composite);
    span.set_bytes(buffers.iter().map(framebuffer_bytes).sum());
    validate_uniform(&buffers);
    let mut stats = CompositeStats::default();
    let mut bufs = buffers;

    // Fold stragglers beyond the largest power of two.
    let p2 = 1usize << (usize::BITS - 1 - bufs.len().leading_zeros());
    while bufs.len() > p2 {
        let straggler = bufs.pop().expect("len > p2 >= 1");
        let target = bufs.len() - p2; // deterministic partner
        stats.bytes_exchanged += framebuffer_bytes(&straggler);
        stats.merge_ops += (straggler.width() * straggler.height()) as u64;
        bufs[target].composite_in(&straggler);
    }

    let pixels = (bufs[0].width() * bufs[0].height()) as u64;
    let total_ranks = bufs.len() as u64;
    let mut group = bufs.len();
    while group > 1 {
        stats.rounds += 1;
        // Each of the P ranks sends half of its current region: in aggregate
        // a round moves P * (pixels / 2^round) * 16 bytes. We model the
        // exchange by pairwise merging whole buffers (the image content is
        // identical; only the banding bookkeeping differs).
        stats.bytes_exchanged += total_ranks * (pixels >> stats.rounds) * 16;
        let half = group / 2;
        let (a, b) = bufs.split_at_mut(half);
        for i in 0..half {
            a[i].composite_in(&b[i]);
            stats.merge_ops += pixels;
        }
        bufs.truncate(half);
        group = half;
    }
    (bufs.remove(0), stats)
}

/// Slot-mapped compositing (DESIGN.md §13): contributions arrive as
/// `(slot, framebuffer)` pairs and the fold runs in ascending **slot**
/// order — never arrival order. Under static ownership a slot is a
/// contributor rank; under a migration plan it is a partition id, filled
/// by whichever rank currently owns the partition, so the image bytes are
/// independent of who rendered what. This is what makes a migrated run
/// byte-identical to the undisturbed one.
///
/// Duplicate contributions for one slot (a handoff whose ack was lost
/// after commit: both owners render it) merge idempotently; a slot nobody
/// filled (a dead or silent contributor) is composited around and counted
/// in [`CompositeStats::missing_contributions`].
///
/// Panics when *no* slot has a contribution (callers emit the all-dead
/// dark frame themselves).
pub fn composite_owned(
    slot_count: usize,
    contribs: Vec<(usize, Framebuffer)>,
) -> (Framebuffer, CompositeStats) {
    let mut stats = CompositeStats::default();
    let mut slots: Vec<Option<Framebuffer>> = (0..slot_count).map(|_| None).collect();
    for (slot, fb) in contribs {
        assert!(
            slot < slot_count,
            "contribution for slot {slot} but only {slot_count} exist"
        );
        match &mut slots[slot] {
            Some(existing) => {
                let _span = eth_obs::span(eth_obs::Phase::Composite);
                stats.merge_ops += (fb.width() * fb.height()) as u64;
                existing.composite_in(&fb);
            }
            empty => *empty = Some(fb),
        }
    }
    let mut missing = 0u64;
    let bufs: Vec<Framebuffer> = slots
        .into_iter()
        .filter_map(|slot| {
            if slot.is_none() {
                missing += 1;
            }
            slot
        })
        .collect();
    assert!(!bufs.is_empty(), "nothing to composite");
    let (fb, fold) = composite_direct(bufs);
    stats.rounds = fold.rounds;
    stats.bytes_exchanged += fold.bytes_exchanged;
    stats.merge_ops += fold.merge_ops;
    stats.missing_contributions = missing;
    (fb, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::Vec3;

    fn striped(width: usize, height: usize, stripe: usize, of: usize, depth: f32) -> Framebuffer {
        // Buffer that owns every `of`-th column starting at `stripe`.
        let mut fb = Framebuffer::new(width, height, Vec3::ZERO);
        for y in 0..height {
            for x in 0..width {
                if x % of == stripe {
                    fb.write(x, y, depth, Vec3::splat((stripe + 1) as f32 * 0.2));
                }
            }
        }
        fb
    }

    #[test]
    fn direct_and_binary_swap_agree() {
        for count in [1usize, 2, 3, 4, 5, 7, 8] {
            let make = || {
                (0..count)
                    .map(|i| striped(16, 8, i, count, (i + 1) as f32))
                    .collect::<Vec<_>>()
            };
            let (a, _) = composite_direct(make());
            let (b, _) = composite_binary_swap(make());
            assert_eq!(a, b, "schedules disagree at P={count}");
        }
    }

    #[test]
    fn composite_prefers_nearest() {
        let mut a = Framebuffer::new(2, 1, Vec3::ZERO);
        let mut b = Framebuffer::new(2, 1, Vec3::ZERO);
        a.write(0, 0, 5.0, Vec3::new(1.0, 0.0, 0.0));
        b.write(0, 0, 1.0, Vec3::new(0.0, 1.0, 0.0));
        let (img, _) = composite_direct(vec![a, b]);
        assert_eq!(img.color_at(0, 0), Vec3::new(0.0, 1.0, 0.0));
    }

    #[test]
    fn single_buffer_is_identity() {
        let fb = striped(8, 8, 0, 2, 1.0);
        let want = fb.clone();
        let (direct, sd) = composite_direct(vec![fb.clone()]);
        let (swap, ss) = composite_binary_swap(vec![fb]);
        assert_eq!(direct, want);
        assert_eq!(swap, want);
        assert_eq!(sd.bytes_exchanged, 0);
        assert_eq!(ss.bytes_exchanged, 0);
        assert_eq!(ss.rounds, 0);
    }

    #[test]
    fn binary_swap_round_count_is_log2() {
        for (p, rounds) in [(2usize, 1u32), (4, 2), (8, 3)] {
            let bufs: Vec<_> = (0..p).map(|i| striped(8, 8, i, p, 1.0)).collect();
            let (_, stats) = composite_binary_swap(bufs);
            assert_eq!(stats.rounds, rounds, "P={p}");
        }
    }

    #[test]
    fn binary_swap_critical_path_beats_gather_to_root() {
        // Aggregate bytes are similar ((P-1) x image for both schedules),
        // but binary swap spreads them over all links: per-rank traffic is
        // ~1 image, while gather-to-root pushes (P-1) images through the
        // root's single link.
        let p = 8u64;
        let bufs: Vec<_> = (0..p as usize).map(|i| striped(32, 32, i, p as usize, 1.0)).collect();
        let (_, s_swap) = composite_binary_swap(bufs.clone());
        let (_, s_direct) = composite_direct(bufs);
        let per_rank_swap = s_swap.bytes_exchanged / p;
        let root_link_direct = s_direct.bytes_exchanged; // all into one rank
        assert!(
            per_rank_swap * 4 < root_link_direct,
            "per-rank swap {per_rank_swap} vs root link {root_link_direct}"
        );
        // and aggregate totals agree to within 2x
        assert!(s_swap.bytes_exchanged <= s_direct.bytes_exchanged * 2);
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        composite_direct(vec![]);
    }

    #[test]
    fn size_mismatch_panics_up_front_with_clear_message() {
        // The bad buffer sits last; validation must still fire before any
        // merging, and the message must name the offender and both sizes.
        let bufs = vec![
            Framebuffer::new(8, 8, Vec3::ZERO),
            Framebuffer::new(8, 8, Vec3::ZERO),
            Framebuffer::new(4, 8, Vec3::ZERO),
        ];
        let err = std::panic::catch_unwind(|| composite_direct(bufs)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("framebuffer 2"), "{msg}");
        assert!(msg.contains("4x8") && msg.contains("8x8"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "share one image size")]
    fn binary_swap_rejects_size_mismatch() {
        composite_binary_swap(vec![
            Framebuffer::new(8, 8, Vec3::ZERO),
            Framebuffer::new(8, 4, Vec3::ZERO),
        ]);
    }

    #[test]
    fn owned_composite_is_contributor_order_independent() {
        let count = 4;
        let make = |i: usize| striped(16, 8, i, count, (i + 1) as f32);
        let (want, _) = composite_direct((0..count).map(make).collect());
        // contributions arrive in a scrambled contributor order, as they
        // would after a migration moved partitions between ranks
        let scrambled: Vec<(usize, Framebuffer)> =
            [2usize, 0, 3, 1].iter().map(|&p| (p, make(p))).collect();
        let (got, stats) = composite_owned(count, scrambled);
        assert_eq!(got, want, "ownership must not leak into image bytes");
        assert_eq!(stats.missing_contributions, 0);
    }

    #[test]
    fn owned_composite_merges_duplicates_idempotently() {
        // both the old and new owner rendered partition 1 (ack lost after
        // commit): the duplicate merges away
        let count = 3;
        let make = |i: usize| striped(16, 8, i, count, (i + 1) as f32);
        let (want, _) = composite_direct((0..count).map(make).collect());
        let contribs = vec![(0, make(0)), (1, make(1)), (1, make(1)), (2, make(2))];
        let (got, stats) = composite_owned(count, contribs);
        assert_eq!(got, want);
        assert_eq!(stats.missing_contributions, 0);
    }

    #[test]
    fn owned_composite_counts_unowned_partitions_as_missing() {
        let count = 3;
        let make = |i: usize| striped(16, 8, i, count, (i + 1) as f32);
        let (got, stats) = composite_owned(count, vec![(0, make(0)), (2, make(2))]);
        assert_eq!(stats.missing_contributions, 1);
        // the hole is composited around: the survivors fold as if alone
        let (want, _) = composite_direct(vec![make(0), make(2)]);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "nothing to composite")]
    fn owned_composite_rejects_no_contributions() {
        composite_owned(3, Vec::new());
    }
}
