//! Per-transaction read/write buffers for the basic (atomic final write)
//! model.
//!
//! Reads go straight to the store (with read-your-own-writes against the
//! staged write set); writes are **staged** and only become visible when
//! [`TxnBuffer::install`] applies them all at once — the paper's
//! assumption (1): *"all values written by a transaction are installed
//! atomically at the end"*, which is what rules out dirty reads and
//! cascading aborts in the basic model.

use crate::store::{Store, Value};
use deltx_model::{EntityId, TxnId};
use std::collections::BTreeMap;

/// The uncommitted working set of one transaction.
#[derive(Clone, Debug)]
pub struct TxnBuffer {
    txn: TxnId,
    reads: Vec<(EntityId, Value)>,
    writes: BTreeMap<EntityId, Value>,
    installed: bool,
}

impl TxnBuffer {
    /// Fresh buffer for transaction `t`.
    pub fn new(t: TxnId) -> Self {
        Self {
            txn: t,
            reads: Vec::new(),
            writes: BTreeMap::new(),
            installed: false,
        }
    }

    /// The owning transaction.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Reads `x`: own staged write if present, else the store's current
    /// value; the observation is logged.
    pub fn read(&mut self, store: &Store, x: EntityId) -> Value {
        let v = self
            .writes
            .get(&x)
            .copied()
            .unwrap_or_else(|| store.read(x));
        self.reads.push((x, v));
        v
    }

    /// Stages a write of `x` (visible to nobody until install).
    pub fn stage_write(&mut self, x: EntityId, v: Value) {
        assert!(!self.installed, "write after install");
        self.writes.insert(x, v);
    }

    /// The staged write set (entity ids), for building the final
    /// `WriteAll` step.
    pub fn write_set(&self) -> Vec<EntityId> {
        self.writes.keys().copied().collect()
    }

    /// The staged writes with their values, ascending by entity — what
    /// [`TxnBuffer::install`] will put in the store, and what a
    /// write-ahead log must record to replay the install.
    pub fn staged_writes(&self) -> Vec<(EntityId, Value)> {
        self.writes.iter().map(|(&x, &v)| (x, v)).collect()
    }

    /// Everything read so far, in order, with the observed values.
    pub fn read_log(&self) -> &[(EntityId, Value)] {
        &self.reads
    }

    /// Atomically installs all staged writes (the final write step).
    /// Consumes nothing but may only happen once.
    pub fn install(&mut self, store: &mut Store) {
        assert!(!self.installed, "double install");
        for (&x, &v) in &self.writes {
            store.write(x, v, self.txn);
        }
        self.installed = true;
    }

    /// Discards the buffer's staged writes (abort): the store was never
    /// touched, so nothing to undo — the point of deferred writes.
    pub fn abort(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_own_writes() {
        let mut store = Store::new();
        store.write(EntityId(0), 5, TxnId(9));
        let mut buf = TxnBuffer::new(TxnId(1));
        assert_eq!(buf.read(&store, EntityId(0)), 5);
        buf.stage_write(EntityId(0), 42);
        assert_eq!(buf.read(&store, EntityId(0)), 42, "own write visible");
        assert_eq!(store.read(EntityId(0)), 5, "store untouched before install");
    }

    #[test]
    fn install_is_atomic_and_attributed() {
        let mut store = Store::new();
        let mut buf = TxnBuffer::new(TxnId(7));
        buf.stage_write(EntityId(1), 10);
        buf.stage_write(EntityId(2), 20);
        buf.install(&mut store);
        assert_eq!(store.read(EntityId(1)), 10);
        assert_eq!(store.read(EntityId(2)), 20);
        assert_eq!(store.current_writer(EntityId(1)), Some(TxnId(7)));
    }

    #[test]
    fn abort_leaves_store_clean() {
        let mut store = Store::new();
        let mut buf = TxnBuffer::new(TxnId(3));
        buf.stage_write(EntityId(0), 99);
        buf.abort();
        assert_eq!(store.read(EntityId(0)), 0);
        store.write(EntityId(0), 1, TxnId(4));
        assert_eq!(store.current_writer(EntityId(0)), Some(TxnId(4)));
    }

    #[test]
    fn read_log_preserves_order() {
        let mut store = Store::new();
        store.write(EntityId(5), 50, TxnId(1));
        let mut buf = TxnBuffer::new(TxnId(2));
        buf.read(&store, EntityId(5));
        buf.read(&store, EntityId(6));
        assert_eq!(buf.read_log(), &[(EntityId(5), 50), (EntityId(6), 0)]);
        assert_eq!(buf.write_set(), vec![]);
    }

    #[test]
    #[should_panic(expected = "double install")]
    fn double_install_panics() {
        let mut store = Store::new();
        let mut buf = TxnBuffer::new(TxnId(1));
        buf.install(&mut store);
        buf.install(&mut store);
    }
}
