//! The record of a run's rank deaths.
//!
//! Inside one process a run loses a rank in one of two ways, and both are
//! seen as they happen. A scripted kill (the fault plan's
//! `kill_rank_at_step`, always a simulation rank, never under tight
//! coupling) is declared here by the rank that dies, with the last step it
//! sent, before it returns its tombstone. A panic is caught by the
//! launcher and fails the run. So no death is inferred from silence, and
//! every reader asks one question whose answer does not depend on
//! scheduling: is rank `r` dead at step `s` — declared, and `s` past the
//! last step it sent?

use std::sync::OnceLock;
use std::time::Instant;

/// One declared death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Death {
    pub(super) rank: usize,
    /// The last step whose block the rank sent; `None` when it died before
    /// its first.
    pub(super) last_step: Option<usize>,
    /// When it was declared: a recovery's latency runs from here to the
    /// adoption.
    pub(super) declared: Instant,
}

/// The deaths of a run's simulation ranks, each set at most once.
pub(super) struct Deaths(Vec<OnceLock<Death>>);

impl Deaths {
    pub(super) fn new(ranks: usize) -> Deaths {
        Deaths((0..ranks).map(|_| OnceLock::new()).collect())
    }

    /// `rank` died after sending `last_step`. A second declaration of the
    /// same rank changes nothing.
    pub(super) fn declare(&self, rank: usize, last_step: Option<usize>) {
        let _ = self.0[rank].set(Death {
            rank,
            last_step,
            declared: Instant::now(),
        });
    }

    /// Has `rank` been declared dead before sending step `step`? Never for
    /// a step it sent, and, once true, true for every later step.
    pub(super) fn dead_at(&self, rank: usize, step: usize) -> bool {
        self.0
            .get(rank)
            .and_then(OnceLock::get)
            .is_some_and(|death| death.last_step < Some(step))
    }

    /// Every death declared so far, by rank.
    pub(super) fn deaths(&self) -> impl Iterator<Item = Death> + '_ {
        self.0.iter().filter_map(|slot| slot.get().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_death_is_declared_once() {
        let deaths = Deaths::new(3);
        assert_eq!(deaths.deaths().count(), 0);
        deaths.declare(1, Some(2));
        deaths.declare(1, None);
        let all: Vec<Death> = deaths.deaths().collect();
        assert_eq!(all.len(), 1);
        assert_eq!((all[0].rank, all[0].last_step), (1, Some(2)));
        // a rank dead before its first step is dead at step 0
        deaths.declare(0, None);
        assert!(deaths.dead_at(0, 0));
        // ranks outside the record never die
        assert!(!deaths.dead_at(7, 9));
    }

    proptest! {
        #[test]
        fn dead_at_holds_from_the_first_unsent_step_on(
            first_unsent in 0usize..33,
            steps in prop::collection::vec(0usize..40, 1..16),
        ) {
            let deaths = Deaths::new(2);
            for &s in &steps {
                prop_assert!(!deaths.dead_at(0, s), "dead before any declaration");
            }
            deaths.declare(0, first_unsent.checked_sub(1));
            for &s in &steps {
                prop_assert_eq!(deaths.dead_at(0, s), s >= first_unsent, "step {}", s);
                // once dead, dead at every later step
                if deaths.dead_at(0, s) {
                    prop_assert!(deaths.dead_at(0, s + 1));
                }
                prop_assert!(!deaths.dead_at(1, s), "an undeclared rank died");
            }
        }
    }
}
