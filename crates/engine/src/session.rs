//! Client sessions: one per in-flight transaction.

use crate::engine::EngineInner;
use crate::error::EngineError;
use deltx_model::{EntityId, TxnId};
use deltx_storage::{TxnBuffer, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The per-transaction state the engine mutates on each call.
pub(crate) struct SessionState {
    pub(crate) txn: TxnId,
    /// Shards where this transaction has a node (reads so far).
    pub(crate) shards: BTreeSet<usize>,
    /// Per-shard read/write buffers (the basic model's deferred,
    /// atomically installed write set).
    pub(crate) bufs: HashMap<usize, TxnBuffer>,
    /// Set once the transaction committed or aborted.
    pub(crate) closed: bool,
}

impl SessionState {
    pub(crate) fn buf(&mut self, shard: usize) -> &mut TxnBuffer {
        let txn = self.txn;
        self.bufs
            .entry(shard)
            .or_insert_with(|| TxnBuffer::new(txn))
    }

    pub(crate) fn check_open(&self) -> Result<(), EngineError> {
        if self.closed {
            Err(EngineError::Closed(self.txn))
        } else {
            Ok(())
        }
    }
}

/// A live transaction: `BEGIN` has happened, reads and staged writes
/// accumulate, and exactly one of [`Session::commit`] /
/// [`Session::abort`] ends it (dropping the session without committing
/// aborts).
///
/// Sessions are `Send`: hand one to a worker thread. They are not
/// `Sync` — one transaction is one logical thread of control.
pub struct Session {
    engine: Arc<EngineInner>,
    state: SessionState,
}

impl Session {
    pub(crate) fn new(engine: Arc<EngineInner>, txn: TxnId) -> Self {
        Self {
            engine,
            state: SessionState {
                txn,
                shards: BTreeSet::new(),
                bufs: HashMap::new(),
                closed: false,
            },
        }
    }

    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.state.txn
    }

    /// Reads entity `x`: own staged write if present, else the current
    /// committed value. Registers the conflict (Rule 2); an
    /// [`EngineError::Aborted`] means the read would have closed a
    /// cycle and the transaction is gone.
    pub fn read(&mut self, x: u32) -> Result<Value, EngineError> {
        self.engine.read(&mut self.state, EntityId(x))
    }

    /// Stages a write of `x` (invisible until commit — the basic
    /// model's atomic final write).
    pub fn write(&mut self, x: u32, v: Value) {
        assert!(!self.state.closed, "write on closed session");
        let shard = self.engine.shard_of(EntityId(x));
        self.state.buf(shard).stage_write(EntityId(x), v);
    }

    /// Commits: performs the final atomic write over the staged write
    /// set (Rule 3 across every involved shard), installing all values.
    pub fn commit(mut self) -> Result<(), EngineError> {
        self.engine.commit(&mut self.state)
    }

    /// Rolls the transaction back. Deferred writes mean the stores were
    /// never touched.
    pub fn abort(mut self) {
        self.engine.client_abort(&mut self.state);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.state.closed {
            self.engine.client_abort(&mut self.state);
        }
    }
}
