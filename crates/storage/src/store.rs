//! The entity store: one value per entity.

use deltx_model::{EntityId, IdMap, TxnId};

/// Stored values. Integers keep the examples (bank balances, counters)
/// honest without dragging in serialization.
pub type Value = i64;

/// An entity's installed value and the transaction that wrote it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Version {
    /// The stored value.
    pub value: Value,
    /// The transaction whose final write installed it.
    pub writer: TxnId,
}

/// An in-memory store holding each entity's current value only: the
/// basic model installs a transaction's writes atomically at its end,
/// and every read sees the newest value, so an overwritten value is
/// gone at install. Entities spring into existence with value `0`.
#[derive(Clone, Debug, Default)]
pub struct Store {
    current: IdMap<EntityId, Version>,
}

impl Store {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of `x` (`0` if never written).
    pub fn read(&self, x: EntityId) -> Value {
        self.current.get(&x).map_or(0, |v| v.value)
    }

    /// The transaction that wrote the current value of `x`, if any —
    /// the data-side view of Corollary 1's *current* notion.
    pub fn current_writer(&self, x: EntityId) -> Option<TxnId> {
        self.current.get(&x).map(|v| v.writer)
    }

    /// Installs `value` as the current value of `x`, replacing the old
    /// one. Returns the installed record.
    pub fn write(&mut self, x: EntityId, value: Value, writer: TxnId) -> Version {
        let v = Version { value, writer };
        self.current.insert(x, v);
        v
    }

    /// Prunes the overwritten values of `entities` that `deleted`
    /// writers installed. There are none — each entity holds only its
    /// current value, which survives whoever wrote it — so this returns
    /// 0. It stays only because the benchmark's micro-measures call it.
    pub fn truncate_versions_in(&mut self, deleted: &[TxnId], entities: &[EntityId]) -> usize {
        let _ = (deleted, entities);
        0
    }

    /// Number of stored values: one per entity ever written.
    pub fn total_versions(&self) -> usize {
        self.current.len()
    }

    /// Entities with an installed value, ascending.
    pub fn written_entities(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.current.keys().copied().collect();
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
        assert_eq!(s.total_versions(), 0);
    }

    #[test]
    fn writes_install_versions_in_order() {
        let mut s = Store::new();
        s.write(EntityId(0), 10, TxnId(1));
        s.write(EntityId(9), 5, TxnId(1));
        s.write(EntityId(0), 20, TxnId(2));
        assert_eq!(s.read(EntityId(0)), 20, "the later write replaces");
        assert_eq!(s.current_writer(EntityId(0)), Some(TxnId(2)));
        assert_eq!(s.read(EntityId(9)), 5);
        assert_eq!(s.total_versions(), 2, "one value per entity");
        assert_eq!(s.written_entities(), vec![EntityId(0), EntityId(9)]);
    }

    #[test]
    fn truncate_drops_only_deleted_noncurrent_versions() {
        // There are no noncurrent values to drop: truncation leaves
        // every current value in place, the deleted writers' included.
        let mut s = Store::new();
        s.write(EntityId(0), 10, TxnId(1));
        s.write(EntityId(0), 30, TxnId(3));
        s.write(EntityId(1), 5, TxnId(2));
        let both = [EntityId(0), EntityId(1)];
        let reclaimed = s.truncate_versions_in(&[TxnId(1), TxnId(2), TxnId(3)], &both);
        assert_eq!(reclaimed, 0);
        assert_eq!(s.read(EntityId(0)), 30, "current value untouched");
        assert_eq!(s.read(EntityId(1)), 5);
        assert_eq!(s.current_writer(EntityId(1)), Some(TxnId(2)));
        assert_eq!(s.total_versions(), 2);
    }

    #[test]
    fn single_live_version_survives_its_writers_deletion() {
        // An entity whose only value was written by a deleted
        // transaction: that value IS the current value, and the engine
        // deletes current writers once they have no predecessor.
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
        let snapshot = (s.total_versions(), s.read(EntityId(0)), s.read(EntityId(1)));
        for _ in 0..3 {
            let both = [EntityId(0), EntityId(1)];
            assert_eq!(s.truncate_versions_in(&[TxnId(1)], &both), 0);
        }
        assert_eq!(
            (s.total_versions(), s.read(EntityId(0)), s.read(EntityId(1))),
            snapshot
        );
    }
}
