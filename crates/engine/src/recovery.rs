//! Recovery replay: rebuilding the shards from the commit records that
//! survived a crash (the scan itself, torn-tail handling and segment
//! quarantine live in `deltx-wal`; [`crate::Engine::open`] drives both
//! and sweeps the multi-shard residue afterwards).
//!
//! A replayed record is a commit like any other: it runs the live
//! commit body ([`EngineInner::commit_locked`]) under the locks of the
//! shards it spans, with the cycle check and the log submission
//! skipped — the record is already on disk. So replay deletes at the
//! source exactly as the commit it stands for did.

use crate::engine::EngineInner;
use crate::ops::StagedCommit;
use deltx_core::Applied;
use deltx_model::{Op, Step};
use deltx_wal::CommitRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;

impl EngineInner {
    /// Rebuilds the engine from the commit records that survived the
    /// crash, in LSN order: each becomes a completed transaction with
    /// its writes installed, its conflict-graph node(s) created, and —
    /// for multi-shard spans — its registry entry and boundary marks
    /// restored, and deletes what it made deletable, as live commits do.
    ///
    /// Replay is sequential, so every `WriteAll` is accepted: all
    /// conflict arcs point from earlier records to later ones and no
    /// cycle can close. Correctness of the values rests on the log's
    /// retirement rule (see [`crate::Engine::open`]): it never retires
    /// an entity's newest record, so the surviving records, applied
    /// oldest-first, end on exactly the pre-crash current value of
    /// every entity.
    pub(crate) fn replay_commits(&self, commits: &[CommitRecord]) -> u64 {
        let nshards = self.shards.len();
        for rec in commits {
            // Fresh transactions must not collide with replayed ids.
            self.next_txn.fetch_max(rec.txn.0 + 1, Ordering::Relaxed);
            self.metrics.txn_became_live();
            self.record_step(Step::new(rec.txn, Op::Begin), Applied::Accepted);
            // The shard span: the recorded one (reads included; spans
            // recorded under a different shard count are re-derived
            // from the writes instead) plus every written entity's
            // home shard.
            let mut involved: BTreeSet<usize> = rec.shards.iter().map(|&s| s as usize).collect();
            involved.retain(|&s| s < nshards);
            let mut writes: BTreeMap<usize, Vec<_>> = BTreeMap::new();
            for &(x, v) in &rec.writes {
                writes.entry(self.shard_of(x)).or_default().push((x, v));
            }
            involved.extend(writes.keys().copied());
            let mut c = StagedCommit {
                txn: rec.txn,
                writes,
                submitted: Some(Ok(rec.lsn)),
            };
            let mut guards = self.lock_subset(&involved, None);
            self.batched(&mut guards, |g| {
                self.commit_locked(&mut c, g, &involved, false)
            })
            .expect("no union check, nothing to go stale")
            .expect("sequential replay is accepted");
        }
        commits.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use crate::{DurabilityConfig, Engine, EngineConfig};
    use deltx_model::TxnId;
    use std::collections::BTreeMap;

    const SHARDS: u32 = 4;
    const ENTITIES: u32 = 20;
    const TXNS: u32 = 64;

    /// Blind writes — no reads, so a commit record carries the whole
    /// step — then a sweep. Over entities 0..12 every third transaction
    /// spans two shards and every third writes two entities of one
    /// shard. The last five set up a ghost: M {0, 1} -> P (shard 0,
    /// current on e16; M keeps it from being a source) -> N {0, 1} ->
    /// Q (shard 1), and once O overwrites N's e12 too, deleting N must
    /// bridge P -> Q through a ghost of P.
    fn workload(e: &Engine) {
        let commit = |xs: &[u32], v: u32| {
            let mut t = e.begin();
            for &x in xs {
                t.write(x, i64::from(v));
            }
            t.commit().unwrap();
        };
        for i in 0..TXNS - 5 {
            let x = (i * 7) % 12;
            match i % 3 {
                0 => commit(&[x, (x + 1) % 12], i),
                1 => commit(&[x, (x + SHARDS) % 12], i),
                _ => commit(&[x], i),
            }
        }
        for xs in [&[16, 17][..], &[12, 16], &[12, 13], &[13], &[12]] {
            commit(xs, TXNS);
        }
        e.gc_sweep();
    }

    type Image = (Vec<i64>, [usize; 4], Vec<usize>, BTreeMap<u32, Vec<usize>>);

    /// Current values; live nodes, arcs, deletions and ghosts made;
    /// boundary marks per shard; registry spans.
    fn image(e: &Engine) -> Image {
        let values = (0..ENTITIES).map(|x| e.peek(x)).collect();
        let m = e.metrics();
        let sizes = [
            m.graph.nodes,
            m.graph.arcs,
            m.gc_deletions as usize,
            m.gc_ghosts as usize,
        ];
        let marks = e.inner.shards.iter();
        let marks = marks
            .map(|s| s.lock().unwrap().cg.boundary_count())
            .collect();
        let span = |t| e.inner.coord.reg_get(TxnId(t), &e.inner.metrics);
        let spans = (1..=TXNS).filter_map(|t| Some((t, span(t)?))).collect();
        (values, sizes, marks, spans)
    }

    #[test]
    fn replayed_commits_rebuild_and_delete_what_live_commits_did() {
        let dir = std::env::temp_dir().join(format!("deltx-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = |durable: bool| EngineConfig {
            shards: SHARDS as usize,
            durability: durable.then(|| DurabilityConfig {
                fsync: false,
                ..DurabilityConfig::new(&dir)
            }),
            ..EngineConfig::default()
        };
        workload(&Engine::new(config(true)));
        let (recovered, report) = Engine::open(config(true)).unwrap();
        recovered.gc_sweep();
        let live = Engine::new(config(false));
        workload(&live);
        let _ = std::fs::remove_dir_all(&dir);
        // One segment, never sealed: every record survives, so replay
        // runs exactly the live commit sequence.
        assert_eq!(report.commits_replayed, u64::from(TXNS));
        let want = image(&live);
        assert!(
            want.1[2] > 0 && want.1[3] > 0,
            "deletions and ghosts: {want:?}"
        );
        assert!(
            !want.3.is_empty(),
            "multi-shard writers stay current: {want:?}"
        );
        assert_eq!(image(&recovered), want);
        assert_eq!(recovered.metrics().boundary_underflows, 0);
    }
}
