//! Deterministic fault plans: the experiment axis for chaos testing.
//!
//! A [`FaultPlan`] describes *which* faults to inject (drop, corruption,
//! peer disconnect) as a pure function of the message key
//! `(from, to, tag, sequence)` and a seed — never of wall-clock time or a
//! shared mutable RNG — so the same plan produces the *same* fault
//! schedule on every run. That makes fault scenarios sweepable experiment
//! parameters exactly like sampling ratio or coupling: serialize the plan
//! into the experiment spec, vary the seed or the probabilities, and the
//! observed degradation is reproducible.
//!
//! The plan only *describes* faults; [`crate::chaos::ChaosLink`] enacts them
//! on a sim↔viz pair link, once, at the sender, on the bytes that cross.
//! Every message on such a link is data, so a plan has no tag window: what
//! is exempt (collectives, control messages) is exempt by never travelling
//! on a wrapped link.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// First tag of harness data traffic: step `n`'s block crosses its pair
/// link under `DATA_TAG_MIN + n`. The range up to
/// [`crate::collectives::COLLECTIVE_TAG_BASE`] is data's alone, so a block
/// on a link that shares a fabric with collectives never matches one.
pub const DATA_TAG_MIN: u32 = 0x1000;

/// The faults that apply to one message, decided deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// Message is silently lost.
    pub drop: bool,
    /// Payload bytes are flipped before the write; the receiver's codec
    /// rejects them.
    pub corrupt: bool,
}

/// Kill the link to `peer` once `after_messages` messages have crossed it
/// (in the direction of the endpoint evaluating the plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisconnectSpec {
    pub peer: usize,
    pub after_messages: u64,
}

/// Kill rank `rank` outright when it reaches step `step`: the rank declares
/// its death and stops sending, as if its node dropped off the fabric.
/// Unlike [`DisconnectSpec`] (which severs one link), a kill takes the whole
/// rank out — every peer loses it at once, and a surviving rank adopts its
/// partition so the run completes. Deterministic by construction: the same
/// `(rank, step)` kills at the same point every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillSpec {
    /// Rank to kill (a simulation-side rank under intercore/internode).
    pub rank: usize,
    /// Step index (0-based) at which the rank dies, before producing that
    /// step's data.
    pub step: usize,
}

/// A complete, serializable fault scenario.
///
/// The default plan is inert: zero probabilities, no disconnect, no
/// deadline — wrapping a communicator with it changes nothing. Use
/// [`FaultPlan::seeded`] for a chaos-ready baseline (2 s receive deadline,
/// 30 s rank supervision) and the `with_*` builders to add faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every fault decision in this plan.
    #[serde(default)]
    pub seed: u64,
    /// Probability a message is silently dropped (send side).
    #[serde(default)]
    pub drop_prob: f64,
    /// Probability a payload is corrupted on the wire (send side).
    #[serde(default)]
    pub corrupt_prob: f64,
    /// Kill one peer's link mid-run.
    #[serde(default)]
    pub disconnect: Option<DisconnectSpec>,
    /// Kill one whole rank at a given step; a surviving rank adopts its
    /// partition.
    #[serde(default)]
    pub kill_rank_at_step: Option<KillSpec>,
    /// Receive deadline on a wrapped link, milliseconds; 0 = none.
    /// When set, no receive on the data path can block indefinitely.
    #[serde(default)]
    pub recv_deadline_ms: u64,
    /// Per-rank wall-clock budget for supervised runs, milliseconds;
    /// 0 = unsupervised.
    #[serde(default)]
    pub rank_timeout_ms: u64,
    /// Fail the Nth (0-based) journal append with a disk-full error —
    /// resource exhaustion as a seeded, deterministic fault. Counted per
    /// journal, so the same plan tears the same append on every run.
    #[serde(default)]
    pub disk_full_at_append: Option<u64>,
    /// Fail the Nth (0-based) staged-block allocation with an
    /// out-of-memory error, exercising the retry/quarantine path the
    /// same way a real allocation failure would.
    #[serde(default)]
    pub alloc_fail_at_stage: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            disconnect: None,
            kill_rank_at_step: None,
            recv_deadline_ms: 0,
            rank_timeout_ms: 0,
            disk_full_at_append: None,
            alloc_fail_at_stage: None,
        }
    }
}

impl FaultPlan {
    /// A chaos-ready baseline: no faults yet, but a 2 s receive deadline
    /// and a 30 s per-rank supervision budget so injected faults degrade
    /// runs instead of hanging them.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            recv_deadline_ms: 2_000,
            rank_timeout_ms: 30_000,
            ..FaultPlan::default()
        }
    }

    pub fn with_drop(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    pub fn with_corrupt(mut self, prob: f64) -> Self {
        self.corrupt_prob = prob;
        self
    }

    pub fn with_disconnect(mut self, peer: usize, after_messages: u64) -> Self {
        self.disconnect = Some(DisconnectSpec {
            peer,
            after_messages,
        });
        self
    }

    pub fn with_kill_rank_at_step(mut self, rank: usize, step: usize) -> Self {
        self.kill_rank_at_step = Some(KillSpec { rank, step });
        self
    }

    pub fn with_disk_full_at_append(mut self, append: u64) -> Self {
        self.disk_full_at_append = Some(append);
        self
    }

    pub fn with_alloc_fail_at_stage(mut self, stage: u64) -> Self {
        self.alloc_fail_at_stage = Some(stage);
        self
    }

    pub fn with_recv_deadline_ms(mut self, ms: u64) -> Self {
        self.recv_deadline_ms = ms;
        self
    }

    pub fn with_rank_timeout_ms(mut self, ms: u64) -> Self {
        self.rank_timeout_ms = ms;
        self
    }

    /// Any fault configured at all? (An inert plan wraps transparently.)
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.corrupt_prob > 0.0 || self.disconnect.is_some()
    }

    /// The receive deadline, if one is configured.
    pub fn deadline(&self) -> Option<Duration> {
        (self.recv_deadline_ms > 0).then(|| Duration::from_millis(self.recv_deadline_ms))
    }

    /// The per-rank supervision budget, if one is configured.
    pub fn rank_timeout(&self) -> Option<Duration> {
        (self.rank_timeout_ms > 0).then(|| Duration::from_millis(self.rank_timeout_ms))
    }

    /// Has the link to `peer` been severed by the time message
    /// `seq` (0-based) crosses it?
    pub fn disconnects(&self, peer: usize, seq: u64) -> bool {
        matches!(self.disconnect, Some(d) if d.peer == peer && seq >= d.after_messages)
    }

    /// Does the plan kill `rank` at (or before) `step`? The harness checks
    /// this at each step boundary; a killed rank declares its death and
    /// produces no data from that step on.
    pub fn kills(&self, rank: usize, step: usize) -> bool {
        matches!(self.kill_rank_at_step, Some(k) if k.rank == rank && step >= k.step)
    }

    /// Check every numeric field is inside its legal domain, naming the
    /// offending field in the error. Inert (default) plans always pass.
    /// `ExperimentSpec::validate` delegates here so an out-of-range plan is
    /// rejected before a campaign schedules it.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for (name, p) in [("drop_prob", self.drop_prob), ("corrupt_prob", self.corrupt_prob)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault plan {name} {p} outside [0, 1]"));
            }
        }
        // a plan that can lose messages must bound the waits it causes,
        // or the run would hang instead of degrading
        let lossy = self.drop_prob > 0.0 || self.disconnect.is_some();
        if lossy && self.recv_deadline_ms == 0 {
            return Err(
                "fault plan drops or disconnects but sets no recv_deadline_ms; \
                 receivers would block forever on lost messages"
                    .into(),
            );
        }
        Ok(())
    }

    /// Contextual validation for [`FaultPlan::kill_rank_at_step`]: the plan
    /// alone cannot know the run shape, so callers that do (the experiment
    /// spec) pass it in. Rejects a victim rank or kill step that the run
    /// never reaches — a kill that silently never fires is a
    /// misconfiguration, not a clean run.
    pub fn validate_kill(&self, ranks: usize, steps: usize) -> std::result::Result<(), String> {
        let Some(kill) = self.kill_rank_at_step else {
            return Ok(());
        };
        if kill.rank >= ranks {
            return Err(format!(
                "kill_rank_at_step.rank {} outside {} sim ranks",
                kill.rank, ranks
            ));
        }
        if kill.step >= steps {
            return Err(format!(
                "kill_rank_at_step.step {} outside {} steps",
                kill.step, steps
            ));
        }
        Ok(())
    }

    /// Decide the faults for one message `from` → `to`: a pure function of
    /// the plan and the message key, so the schedule is identical on every
    /// run. Only the sender asks, so a message is faulted at most once.
    pub fn decide(&self, from: usize, to: usize, tag: u32, seq: u64) -> FaultDecision {
        if !self.is_active() {
            return FaultDecision::default();
        }
        // the salt is the one the send side has always drawn under, so a
        // seed keeps its schedule
        const SALT: u64 = 0x5EBD;
        let key = (self.seed ^ SALT.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add((from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((to as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add((tag as u64).wrapping_mul(0x1656_67B1_9E37_79F9))
            .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut rng = StdRng::seed_from_u64(key);
        FaultDecision {
            drop: rng.random_f64() < self.drop_prob,
            corrupt: rng.random_f64() < self.corrupt_prob,
        }
    }
}

/// Exponential backoff with deterministic jitter and an attempt budget,
/// for bootstrap polling and between a campaign point's attempts. Jitter draws from
/// a seeded [`StdRng`], so retry timing is reproducible per rank while
/// still decorrelated across ranks (no thundering herd on the listener).
#[derive(Debug)]
pub struct Backoff {
    attempt: u32,
    budget: u32,
    base: Duration,
    cap: Duration,
    rng: StdRng,
}

impl Backoff {
    /// Default shape: 1 ms doubling to a 100 ms cap, 1000-attempt budget.
    pub fn new(seed: u64) -> Backoff {
        Backoff::with_shape(seed, Duration::from_millis(1), Duration::from_millis(100), 1000)
    }

    pub fn with_shape(seed: u64, base: Duration, cap: Duration, budget: u32) -> Backoff {
        Backoff {
            attempt: 0,
            budget,
            base,
            cap,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next sleep interval, or `None` when the retry budget is spent.
    /// The interval is `base * 2^attempt` (capped) jittered uniformly into
    /// `[0.5x, 1.5x)`.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.budget {
            return None;
        }
        let exp = self.attempt.min(20);
        let raw = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.cap)
            .max(Duration::from_micros(100));
        let nanos = raw.as_nanos() as u64;
        let jittered = nanos / 2 + self.rng.next_u64() % nanos.max(1);
        self.attempt += 1;
        Some(Duration::from_nanos(jittered))
    }

    /// Sleep for the next interval; `false` when the budget is spent.
    pub fn snooze(&mut self) -> bool {
        match self.next_delay() {
            Some(d) => {
                let _span = eth_obs::span(eth_obs::Phase::Backoff);
                std::thread::sleep(d);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_the_key() {
        let plan = FaultPlan::seeded(7).with_drop(0.3).with_corrupt(0.2);
        for seq in 0..100 {
            let a = plan.decide(0, 1, 0x1001, seq);
            let b = plan.decide(0, 1, 0x1001, seq);
            assert_eq!(a, b);
        }
        // different seeds give different schedules
        let other = FaultPlan::seeded(8).with_drop(0.3).with_corrupt(0.2);
        let differs = (0..100).any(|seq| {
            plan.decide(0, 1, 0x1001, seq)
                != other.decide(0, 1, 0x1001, seq)
        });
        assert!(differs, "seed change did not change the schedule");

        // The send stream is the one every seeded plan has drawn from: the
        // intercore `coupling_golden` rows under seed 9 flip exactly these
        // two of their twelve blocks (sim rank r -> fabric rank 3 + r).
        let plan = FaultPlan::seeded(9).with_corrupt(0.5);
        let flipped: Vec<(usize, u64)> = (0..3)
            .flat_map(|r| (0..4u64).map(move |step| (r, step)))
            .filter(|&(r, step)| plan.decide(r, 3 + r, DATA_TAG_MIN + step as u32, step).corrupt)
            .collect();
        assert_eq!(flipped, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let plan = FaultPlan::seeded(42).with_drop(0.5);
        let drops = (0..1000)
            .filter(|&seq| plan.decide(0, 1, 0x1001, seq).drop)
            .count();
        assert!((350..650).contains(&drops), "drops {drops}");
    }

    #[test]
    fn disconnect_threshold() {
        let plan = FaultPlan::seeded(3).with_disconnect(2, 5);
        assert!(!plan.disconnects(2, 4));
        assert!(plan.disconnects(2, 5));
        assert!(plan.disconnects(2, 99));
        assert!(!plan.disconnects(1, 99));
    }

    #[test]
    fn plan_roundtrips_through_serde() {
        let plan = FaultPlan::seeded(11)
            .with_drop(0.25)
            .with_corrupt(0.1)
            .with_disconnect(1, 3)
            .with_kill_rank_at_step(1, 2);
        let text = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
        // defaults fill in for an empty plan
        let empty: FaultPlan = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, FaultPlan::default());
        assert!(!empty.is_active());
    }

    #[test]
    fn resource_faults_roundtrip_and_stay_off_the_message_path() {
        let plan = FaultPlan::seeded(5)
            .with_disk_full_at_append(3)
            .with_alloc_fail_at_stage(1);
        let text = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
        assert_eq!(back.disk_full_at_append, Some(3));
        assert_eq!(back.alloc_fail_at_stage, Some(1));
        // resource exhaustion is not a message fault: the chaos wrapper
        // on the data path stays inert
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
        // legacy plans still parse: fields added since default off, and a
        // key this version no longer has (older writers emitted a tag
        // window) is ignored
        let legacy: FaultPlan =
            serde_json::from_str(r#"{"seed":9,"drop_prob":0.0,"retired_key":4096}"#).unwrap();
        assert_eq!(legacy, FaultPlan { seed: 9, ..FaultPlan::default() });
    }

    #[test]
    fn kill_spec_is_deterministic_and_scoped_to_its_rank() {
        let plan = FaultPlan::seeded(3).with_kill_rank_at_step(1, 2);
        // the kill is not a message fault: the data path stays inert
        assert!(!plan.is_active());
        assert!(!plan.kills(1, 0));
        assert!(!plan.kills(1, 1));
        assert!(plan.kills(1, 2), "rank dies at its kill step");
        assert!(plan.kills(1, 5), "…and stays dead afterwards");
        assert!(!plan.kills(0, 2), "other ranks are untouched");
        assert!(!FaultPlan::default().kills(1, 2));
    }

    #[test]
    fn validate_names_the_offending_field() {
        assert!(FaultPlan::default().validate().is_ok());
        assert!(FaultPlan::seeded(1).with_drop(0.3).validate().is_ok());

        let bad = FaultPlan::seeded(1).with_drop(1.5);
        assert!(bad.validate().unwrap_err().contains("drop_prob"));
        let bad = FaultPlan::seeded(1).with_corrupt(-0.1);
        assert!(bad.validate().unwrap_err().contains("corrupt_prob"));
        let bad = FaultPlan::seeded(1).with_corrupt(f64::NAN);
        assert!(bad.validate().unwrap_err().contains("corrupt_prob"));

        // lossy without a deadline would hang instead of degrading
        let bad = FaultPlan::default().with_drop(0.1);
        assert!(bad.validate().unwrap_err().contains("recv_deadline_ms"));
    }

    #[test]
    fn kill_spec_bounds_are_checked_against_the_run_shape() {
        // no kill configured: any shape passes
        assert!(FaultPlan::default().validate_kill(1, 1).is_ok());
        let plan = FaultPlan::seeded(1).with_kill_rank_at_step(1, 2);
        assert!(plan.validate_kill(2, 3).is_ok());
        // a victim rank the run never spawns
        let err = plan.validate_kill(1, 3).unwrap_err();
        assert!(err.contains("rank 1"), "{err}");
        // a kill step the run never reaches would silently never fire
        let err = plan.validate_kill(2, 2).unwrap_err();
        assert!(err.contains("step 2"), "{err}");
    }

    #[test]
    fn backoff_grows_caps_and_budgets() {
        let mut b = Backoff::with_shape(
            5,
            Duration::from_millis(1),
            Duration::from_millis(16),
            6,
        );
        let delays: Vec<Duration> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 6, "budget not enforced");
        // jitter keeps every delay within [0.5x, 1.5x) of the capped ideal
        for (i, d) in delays.iter().enumerate() {
            let ideal = Duration::from_millis((1u64 << i).min(16));
            assert!(*d >= ideal / 2, "attempt {i}: {d:?} under jitter floor");
            assert!(*d < ideal * 3 / 2 + Duration::from_millis(1), "attempt {i}: {d:?} over");
        }
        // deterministic per seed
        let mut b1 = Backoff::new(77);
        let mut b2 = Backoff::new(77);
        assert_eq!(b1.next_delay(), b2.next_delay());
    }
}
