//! Optional recording of the engine's linearized step history, and the
//! oracles that check it.
//!
//! When [`crate::EngineConfig::record_history`] is set, every scheduler
//! decision is appended — *while the deciding locks are still held*, so
//! the recorded order of any two conflicting operations is their true
//! order — together with the outcome the engine produced. Theorem 2 says
//! a scheduler whose deletions are all safe behaves *identically* to the
//! full (never-deleting) one, so [`RecordedHistory::replay_full`], the
//! one copy of that oracle every test and simulated run calls, convicts
//! the engine's sharding or its GC on any divergence.

use deltx_core::{Applied, CgState};
use deltx_model::{Schedule, Step, TxnId};

/// One recorded engine event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A step was offered to the scheduler and decided as recorded.
    Step {
        /// The step (multi-shard final writes are recorded as the one
        /// combined `WriteAll` the paper's model prescribes).
        step: Step,
        /// The engine's decision for it.
        outcome: Applied,
    },
    /// The client voluntarily aborted the transaction (rollback).
    ClientAbort(TxnId),
}

/// The full recorded history of an engine run.
#[derive(Clone, Debug, Default)]
pub struct RecordedHistory {
    /// Events in linearization order.
    pub events: Vec<Event>,
}

impl RecordedHistory {
    /// The accepted steps, in order — the engine's *output schedule*
    /// (what actually executed), with self-aborted and ignored steps
    /// dropped. Feed this to `deltx_model::history::is_csr`.
    pub fn accepted_steps(&self) -> Vec<Step> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Step {
                    step,
                    outcome: Applied::Accepted,
                } => Some(step.clone()),
                _ => None,
            })
            .collect()
    }

    /// Ids of transactions the client rolled back.
    pub fn client_aborted(&self) -> Vec<TxnId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::ClientAbort(t) => Some(*t),
                _ => None,
            })
            .collect()
    }

    /// Theorem 2's lockstep oracle: feeds every event to one full
    /// (never-deleting) `CgState`, then runs its `check_invariants`.
    ///
    /// # Errors
    /// Names the first event whose recorded outcome differs from the
    /// full scheduler's, or that the full scheduler refuses.
    pub fn replay_full(&self) -> Result<CgState, String> {
        let mut full = CgState::new();
        for (i, ev) in self.events.iter().enumerate() {
            match ev {
                Event::Step { step, outcome } => {
                    let got = full
                        .apply(step)
                        .map_err(|e| format!("event {i}: replay rejected {step:?}: {e}"))?;
                    if got != *outcome {
                        return Err(format!(
                            "event {i}: engine diverged from the full scheduler on \
                             {step:?}: recorded {outcome:?}, full scheduler {got:?}"
                        ));
                    }
                }
                Event::ClientAbort(t) => full.abort_txn(*t).map_err(|e| {
                    format!("event {i}: replay rejected client abort of {t:?}: {e}")
                })?,
            }
        }
        full.check_invariants();
        Ok(full)
    }

    /// Whether the accepted steps, minus every transaction that the
    /// scheduler (per `full`, from [`RecordedHistory::replay_full`]) or
    /// its client aborted, are conflict-serializable.
    pub fn is_csr(&self, full: &CgState) -> bool {
        let mut aborted = full.aborted_txns().clone();
        aborted.extend(self.client_aborted());
        let accepted = Schedule::from_steps(self.accepted_steps()).accepted_subschedule(&aborted);
        deltx_model::history::is_csr(&accepted)
    }
}

/// The `O(active)` bound the stress runs and simulated workloads hold
/// the live graph to: the active sessions, a few current transactions
/// per entity, and the multi-shard candidates waiting for a sweep.
pub fn live_graph_bound(clients: usize, entities: u32) -> usize {
    clients + 4 * entities as usize + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(events: impl IntoIterator<Item = (Step, Applied)>) -> RecordedHistory {
        RecordedHistory {
            events: events
                .into_iter()
                .map(|(step, outcome)| Event::Step { step, outcome })
                .collect(),
        }
    }

    #[test]
    fn replay_names_an_accepted_read_that_closes_a_cycle() {
        // T1 reads x0, T2 overwrites x0 and x1 (T1 -> T2), then T1
        // reads T2's x1 (T2 -> T1): the full scheduler aborts T1.
        let h = history([
            (Step::begin(1), Applied::Accepted),
            (Step::begin(2), Applied::Accepted),
            (Step::read(1, 0), Applied::Accepted),
            (Step::write_all(2, [0, 1]), Applied::Accepted),
            (Step::read(1, 1), Applied::Accepted),
        ]);
        let err = h
            .replay_full()
            .expect_err("the cycle-closing read must convict");
        assert!(err.starts_with("event 4:"), "{err}");
        assert!(err.contains("SelfAborted"), "{err}");
    }

    #[test]
    fn replay_refuses_a_client_abort_of_a_completed_transaction() {
        let mut h = history([
            (Step::begin(1), Applied::Accepted),
            (Step::write_all(1, [0]), Applied::Accepted),
        ]);
        h.events.push(Event::ClientAbort(TxnId(1)));
        let err = h
            .replay_full()
            .expect_err("a completed transaction has no undo");
        assert!(err.starts_with("event 2:"), "{err}");
    }

    #[test]
    fn clean_history_replays_and_is_csr() {
        let h = history([
            (Step::begin(1), Applied::Accepted),
            (Step::begin(2), Applied::Accepted),
            (Step::read(1, 0), Applied::Accepted),
            (Step::write_all(1, [0]), Applied::Accepted),
            (Step::read(2, 0), Applied::Accepted),
            (Step::write_all(2, [0, 1]), Applied::Accepted),
        ]);
        let full = h
            .replay_full()
            .expect("the history is the full scheduler's");
        assert!(h.is_csr(&full));
    }
}
