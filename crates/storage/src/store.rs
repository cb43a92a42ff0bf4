//! The multi-version entity store.

use crate::smallvec::SmallVec;
use deltx_model::{EntityId, IdMap, IdSet, TxnId};

/// Stored values. Integers keep the examples (bank balances, counters)
/// honest without dragging in serialization.
pub type Value = i64;

/// One installed version of an entity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Version {
    /// The stored value.
    pub value: Value,
    /// The transaction whose final write installed it.
    pub writer: TxnId,
    /// Global installation sequence number (monotone across entities).
    pub seq: u64,
}

/// Longest `deleted` list [`Store::truncate_versions_in`] scans as a
/// slice instead of hashing into a set.
const SCAN_MAX_DEAD: usize = 8;

/// Versions an entity keeps inline in its map slot: the current one
/// and one more. Truncation keeps the current version plus those of
/// writers still live; a longer list spills to the heap.
const VERSIONS_INLINE: usize = 2;

/// One entity's versions, oldest first.
type Versions = SmallVec<Version, VERSIONS_INLINE>;

/// Drops every non-newest version of one entity whose writer is
/// `dead`; returns how many were reclaimed.
fn prune(h: &mut Versions, dead: impl Fn(TxnId) -> bool) -> usize {
    let last = h.len().saturating_sub(1);
    let before = h.len();
    let mut i = 0;
    h.retain(|v| {
        let keep = i == last || !dead(v.writer);
        i += 1;
        keep
    });
    before - h.len()
}

/// An in-memory multi-version store. Entities spring into existence with
/// value `0` and no version history.
#[derive(Clone, Debug, Default)]
pub struct Store {
    history: IdMap<EntityId, Versions>,
    seq: u64,
}

impl Store {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of `x` (`0` if never written).
    pub fn read(&self, x: EntityId) -> Value {
        self.history
            .get(&x)
            .and_then(|h| h.last())
            .map_or(0, |v| v.value)
    }

    /// Current version record of `x`, if ever written.
    pub fn current_version(&self, x: EntityId) -> Option<&Version> {
        self.history.get(&x).and_then(|h| h.last())
    }

    /// The transaction that wrote the current value of `x`, if any —
    /// the data-side view of Corollary 1's *current* notion.
    pub fn current_writer(&self, x: EntityId) -> Option<TxnId> {
        self.current_version(x).map(|v| v.writer)
    }

    /// Number of versions ever installed for `x`.
    pub fn version_count(&self, x: EntityId) -> usize {
        self.history.get(&x).map_or(0, |h| h.len())
    }

    /// Installs a new version of `x`. Returns the version record.
    pub fn write(&mut self, x: EntityId, value: Value, writer: TxnId) -> Version {
        self.seq += 1;
        let v = Version {
            value,
            writer,
            seq: self.seq,
        };
        self.history.entry(x).or_default().push(v);
        v
    }

    /// Full version history of `x`, oldest first.
    pub fn history(&self, x: EntityId) -> &[Version] {
        self.history.get(&x).map_or(&[], Versions::as_slice)
    }

    /// Prunes the version history of `entities` installed by `deleted`
    /// writers: every non-newest version whose writer is in `deleted` is
    /// dropped (the newest version of each entity always survives — it
    /// *is* the current value, whoever wrote it). Returns the number of
    /// versions reclaimed.
    ///
    /// This is the storage half of deleting a completed transaction:
    /// once the scheduler has forgotten a writer (conditions C1/C2 or
    /// the noncurrent test), nothing can ever ask for its overwritten
    /// versions. The caller lists what the deleted writers wrote (the
    /// engine's GC knows — the scheduler records each node's write set
    /// until the moment of deletion), so no store-wide scan is needed.
    pub fn truncate_versions_in(&mut self, deleted: &[TxnId], entities: &[EntityId]) -> usize {
        if deleted.is_empty() || entities.is_empty() {
            return 0;
        }
        // A commit deleting at the source passes the one or two writers
        // it just superseded: scan the slice, and build a set only for
        // a real batch (the multi-shard pass, recovery's sweep).
        let set: IdSet<TxnId> = if deleted.len() > SCAN_MAX_DEAD {
            deleted.iter().copied().collect()
        } else {
            IdSet::default()
        };
        let dead = |t: TxnId| {
            if set.is_empty() {
                deleted.contains(&t)
            } else {
                set.contains(&t)
            }
        };
        let mut reclaimed = 0;
        for x in entities {
            if let Some(h) = self.history.get_mut(x) {
                reclaimed += prune(h, dead);
            }
        }
        reclaimed
    }

    /// Total number of retained versions across all entities (the
    /// storage-side memory gauge, the analogue of the scheduler's node
    /// count).
    pub fn total_versions(&self) -> usize {
        self.history.values().map(|h| h.len()).sum()
    }

    /// Entities with at least one installed version.
    pub fn written_entities(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.history.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_entities_read_zero() {
        let s = Store::new();
        assert_eq!(s.read(EntityId(3)), 0);
        assert_eq!(s.current_writer(EntityId(3)), None);
        assert_eq!(s.version_count(EntityId(3)), 0);
    }

    #[test]
    fn writes_install_versions_in_order() {
        let mut s = Store::new();
        s.write(EntityId(0), 10, TxnId(1));
        s.write(EntityId(0), 20, TxnId(2));
        assert_eq!(s.read(EntityId(0)), 20);
        assert_eq!(s.current_writer(EntityId(0)), Some(TxnId(2)));
        assert_eq!(s.version_count(EntityId(0)), 2);
        let h = s.history(EntityId(0));
        assert_eq!(h[0].value, 10);
        assert!(h[0].seq < h[1].seq, "sequence numbers monotone");
    }

    #[test]
    fn truncate_drops_only_deleted_noncurrent_versions() {
        let mut s = Store::new();
        s.write(EntityId(0), 10, TxnId(1));
        s.write(EntityId(0), 20, TxnId(2));
        s.write(EntityId(0), 30, TxnId(3));
        s.write(EntityId(1), 5, TxnId(2));
        assert_eq!(s.total_versions(), 4);
        let both = [EntityId(0), EntityId(1)];
        // T2 deleted: its e0 version goes, but its e1 version is newest
        // and must survive.
        let reclaimed = s.truncate_versions_in(&[TxnId(2)], &both);
        assert_eq!(reclaimed, 1);
        assert_eq!(s.version_count(EntityId(0)), 2);
        assert_eq!(s.read(EntityId(0)), 30, "current value untouched");
        assert_eq!(s.read(EntityId(1)), 5, "newest version always kept");
        assert_eq!(s.current_writer(EntityId(1)), Some(TxnId(2)));
        // Deleting the remaining writers prunes all but the newest.
        let reclaimed = s.truncate_versions_in(&[TxnId(1), TxnId(3)], &both);
        assert_eq!(reclaimed, 1, "T1's version pruned, T3's is current");
        assert_eq!(s.history(EntityId(0)).len(), 1);
        assert_eq!(s.truncate_versions_in(&[], &both), 0);
    }

    #[test]
    fn targeted_truncation_prunes_only_listed_entities() {
        let mut s = Store::new();
        s.write(EntityId(0), 1, TxnId(1));
        s.write(EntityId(0), 2, TxnId(2));
        s.write(EntityId(1), 3, TxnId(1));
        s.write(EntityId(1), 4, TxnId(3));
        // Only entity 0 listed: T1's version there goes, entity 1's
        // T1 version is untouched.
        let n = s.truncate_versions_in(&[TxnId(1)], &[EntityId(0), EntityId(9)]);
        assert_eq!(n, 1);
        assert_eq!(s.version_count(EntityId(0)), 1);
        assert_eq!(s.version_count(EntityId(1)), 2, "unlisted entity kept");
        assert_eq!(s.truncate_versions_in(&[TxnId(1)], &[]), 0);
        assert_eq!(s.truncate_versions_in(&[], &[EntityId(1)]), 0);
        // Listing entity 1 finishes the job.
        assert_eq!(s.truncate_versions_in(&[TxnId(1)], &[EntityId(1)]), 1);
        assert_eq!(s.read(EntityId(1)), 4);
    }

    #[test]
    fn targeted_truncation_agrees_on_both_sides_of_the_scan_limit() {
        // SCAN_MAX_DEAD writers are scanned as a slice, one more goes
        // through a set: same versions reclaimed either way.
        for dead in [SCAN_MAX_DEAD, SCAN_MAX_DEAD + 1] {
            let mut s = Store::new();
            for t in 1..=dead as u32 + 2 {
                s.write(EntityId(0), i64::from(t), TxnId(t));
            }
            let deleted: Vec<TxnId> = (1..=dead as u32).map(TxnId).collect();
            assert_eq!(s.truncate_versions_in(&deleted, &[EntityId(0)]), dead);
            let left: Vec<TxnId> = s.history(EntityId(0)).iter().map(|v| v.writer).collect();
            assert_eq!(left, [TxnId(dead as u32 + 1), TxnId(dead as u32 + 2)]);
        }
    }

    #[test]
    fn single_live_version_survives_its_writers_deletion() {
        // An entity whose only version was written by a deleted
        // transaction: that version IS the current value (Corollary
        // 1's noncurrent test admits deleting such a writer only when
        // someone else has overwritten every entity it wrote — but the
        // store must defend the invariant on its own).
        let mut s = Store::new();
        s.write(EntityId(0), 42, TxnId(1));
        assert_eq!(s.truncate_versions_in(&[TxnId(1)], &[EntityId(0)]), 0);
        assert_eq!(s.read(EntityId(0)), 42, "sole version always survives");
        assert_eq!(s.current_writer(EntityId(0)), Some(TxnId(1)));
    }

    #[test]
    fn repeated_truncation_is_idempotent() {
        let mut s = Store::new();
        s.write(EntityId(0), 1, TxnId(1));
        s.write(EntityId(0), 2, TxnId(2));
        s.write(EntityId(1), 3, TxnId(1));
        s.write(EntityId(1), 4, TxnId(2));
        assert_eq!(
            s.truncate_versions_in(&[TxnId(1)], &[EntityId(0), EntityId(1)]),
            2
        );
        let snapshot = (s.total_versions(), s.read(EntityId(0)), s.read(EntityId(1)));
        // Re-running the same truncation (the engine's GC can queue a
        // writer twice across overlapping closures) reclaims nothing
        // and changes nothing.
        for _ in 0..3 {
            assert_eq!(
                s.truncate_versions_in(&[TxnId(1)], &[EntityId(0), EntityId(1)]),
                0
            );
        }
        assert_eq!(
            (s.total_versions(), s.read(EntityId(0)), s.read(EntityId(1))),
            snapshot
        );
    }

    #[test]
    fn two_versions_stay_inline_and_truncation_brings_a_spill_back() {
        let mut s = Store::new();
        let spilled = |s: &Store| s.history[&EntityId(0)].spilled();
        s.write(EntityId(0), 1, TxnId(1));
        s.write(EntityId(0), 2, TxnId(2));
        assert!(!spilled(&s), "current plus one live writer's: inline");
        s.write(EntityId(0), 3, TxnId(3));
        assert!(spilled(&s));
        assert_eq!(
            s.truncate_versions_in(&[TxnId(1), TxnId(2)], &[EntityId(0)]),
            2
        );
        assert!(!spilled(&s), "back inline once only the current is left");
        assert_eq!(s.read(EntityId(0)), 3);
        assert_eq!(s.history(EntityId(0)).len(), 1);
    }

    #[test]
    fn sequence_global_across_entities() {
        let mut s = Store::new();
        let a = s.write(EntityId(0), 1, TxnId(1));
        let b = s.write(EntityId(9), 2, TxnId(1));
        assert!(a.seq < b.seq);
        assert_eq!(s.written_entities(), vec![EntityId(0), EntityId(9)]);
    }
}
