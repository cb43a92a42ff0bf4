//! Recovery replay: rebuilding the shards from the commit records that
//! survived a crash (the scan itself, torn-tail handling and segment
//! quarantine live in `deltx-wal`; [`crate::Engine::open`] drives both
//! and runs the checkpointing sweep afterwards).

use crate::engine::EngineInner;
use deltx_core::Applied;
use deltx_model::{EntityId, Op, Step};
use deltx_wal::CommitRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;

impl EngineInner {
    /// Rebuilds the engine from the commit records that survived the
    /// crash, in LSN order: each becomes a completed transaction with
    /// its writes installed, its conflict-graph node(s) created, and —
    /// for multi-shard spans — its registry entry and boundary marks
    /// restored, so post-recovery GC treats replayed transactions
    /// exactly like natively committed ones.
    ///
    /// Replay is sequential, so every `WriteAll` is accepted: all
    /// conflict arcs point from earlier records to later ones and no
    /// cycle can close. Correctness of the values rests on the
    /// truncation-safety invariant (see [`crate::Engine::open`]): the
    /// noncurrent policy never deleted any entity's current writer, so
    /// the surviving records, applied oldest-first, end on exactly the
    /// pre-crash current value of every entity.
    pub(crate) fn replay_commits(&self, commits: &[CommitRecord]) -> u64 {
        let nshards = self.shards.len();
        let mut max_txn = 0u32;
        for rec in commits {
            max_txn = max_txn.max(rec.txn.0);
            self.metrics.txn_became_live();
            self.record_step(Step::new(rec.txn, Op::Begin), Applied::Accepted);
            // The shard span: the recorded one (reads included; spans
            // recorded under a different shard count are re-derived
            // from the writes instead) plus every written entity's
            // home shard.
            let mut involved: BTreeSet<usize> = rec
                .shards
                .iter()
                .map(|&s| s as usize)
                .filter(|&s| s < nshards)
                .collect();
            let mut writes: BTreeMap<usize, Vec<EntityId>> = BTreeMap::new();
            for &(x, _) in &rec.writes {
                let s = self.shard_of(x);
                involved.insert(s);
                writes.entry(s).or_default().push(x);
            }
            let mut guards = self.lock_subset(&involved, None);
            for g in guards.values_mut() {
                g.cg.begin_summary_batch();
            }
            for &s in &involved {
                Self::ensure_node(guards.get_mut(&s).expect("locked"), rec.txn)
                    .expect("replay begin on a fresh graph");
            }
            self.note_multi_shard(&mut guards, rec.txn, &involved);
            let empty: Vec<EntityId> = Vec::new();
            for &s in &involved {
                let xs = writes.get(&s).unwrap_or(&empty);
                let sub = Step::new(rec.txn, Op::WriteAll(xs.clone()));
                let g = guards.get_mut(&s).expect("locked");
                let out = g.cg.apply(&sub).expect("replay write");
                debug_assert_eq!(out, Applied::Accepted, "sequential replay cannot cycle");
            }
            for &(x, v) in &rec.writes {
                let s = self.shard_of(x);
                guards
                    .get_mut(&s)
                    .expect("locked")
                    .store
                    .write(x, v, rec.txn);
            }
            self.record_step(
                Step::new(
                    rec.txn,
                    Op::WriteAll(rec.writes.iter().map(|&(x, _)| x).collect()),
                ),
                Applied::Accepted,
            );
            self.flush_summaries(&mut guards);
        }
        if max_txn > 0 {
            // Fresh transactions must not collide with replayed ids.
            let next = self.next_txn.load(Ordering::Relaxed).max(max_txn + 1);
            self.next_txn.store(next, Ordering::Relaxed);
        }
        self.metrics.wal_recovery_replayed.add(commits.len() as u64);
        commits.len() as u64
    }
}
