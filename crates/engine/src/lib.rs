//! # deltx-engine — a concurrent, sharded online transaction engine
//!
//! Everything else in this workspace *analyzes* the paper's machinery;
//! this crate *serves* with it. `deltx-engine` turns the conflict-graph
//! scheduler of Hadzilacos & Yannakakis into an online OLTP-style
//! service in which "deleting completed transactions" is a live memory
//! reclamation mechanism: every commit removes the completed
//! transactions its own write made deletable, the moment the paper's
//! conditions allow, keeping the scheduler state `O(active transactions
//! + entities)` under sustained load — with no GC thread.
//!
//! ## Architecture
//!
//! ```text
//!        Engine::begin()                 Engine::begin()
//!              │                               │
//!        ┌─────▼─────┐                   ┌─────▼─────┐
//!        │ Session T1 │  read/write/...  │ Session T8 │   (one per client
//!        └─────┬─────┘                   └─────┬─────┘    thread; owns its
//!              │  route by entity:  x -> shard(x)    │    TxnBuffers)
//!     ┌────────┼───────────────┬────────────────────┘
//!  ┌──▼───────────┐  ┌─────────▼────┐       ┌──────────────┐
//!  │ Shard 0      │  │ Shard 1      │  ...  │ Shard N-1    │
//!  │  Mutex<      │  │  Mutex<      │       │  Mutex<      │
//!  │   CgState +  │  │   CgState +  │       │   CgState +  │
//!  │   Store>     │  │   Store>     │       │   Store>     │
//!  └──────▲───────┘  └──────▲───────┘       └──────▲───────┘
//!         │ lock one (fast path) or own, ascending;  │
//!         │ the committer deletes what it overwrote │
//!         └─────────────────────────────────────────┘
//! ```
//!
//! * **Sessions** ([`Session`]) follow the paper's basic model:
//!   `BEGIN -> reads -> one atomic final write` (the write set is staged
//!   in per-shard [`deltx_storage::TxnBuffer`]s and installed atomically
//!   at [`Session::commit`]). [`Session::abort`] rolls back by simply
//!   dropping the buffers — deferred writes mean there is nothing to
//!   undo.
//! * **Shards**: entities are partitioned by `x mod N`; each shard owns
//!   an independent [`deltx_core::CgState`] (Rules 1–3 applied to the
//!   entities it owns) plus the [`deltx_storage::Store`] holding their
//!   versions, behind its own mutex. Every conflict arc is witnessed by
//!   a single entity, so every arc is *intra-shard*, and the global
//!   conflict graph is exactly the union of the shard graphs with nodes
//!   of the same transaction identified.
//! * **Cross-shard commits**: every step adds arcs only *into* the
//!   operating transaction, so it closes a cycle iff the transaction
//!   already reaches an arc source — and a path leaves a shard's graph
//!   only through a *boundary node* (a node of a multi-shard
//!   transaction). An operation of a transaction that has stayed
//!   inside one shard therefore takes the **fast path** — one lock,
//!   one local cycle check — whenever that shard has no boundary node
//!   *or the transaction's own node reaches none*: each shard's
//!   `CgState` keeps, for every node, a **bitmask of the boundary
//!   nodes it reaches** over a compact boundary-txn index
//!   (word-parallel propagation on arc fan-ins, one batched update per
//!   escalated commit), and the gate is one word test on it
//!   ([`deltx_core::CgState::boundary_exposed`]). A parked multi-shard
//!   reader thus costs only the operations that actually reach it.
//!   Anything else escalates **own shards first**: the operation locks
//!   the shards it touches plus the transaction's registered span, in
//!   ascending order, and runs the union cycle check as a BFS that
//!   hops between shards at multi-shard nodes. A BFS that finishes
//!   inside the held locks is exact; one that meets twins in unlocked
//!   shards adds them to its lock set, retakes it (still ascending,
//!   deadlock-free) and runs again — see the `ops` module docs. Two
//!   commits (or GC sweeps) with disjoint lock sets share no lock at
//!   all — the cross-shard state they consult is a **stripe-locked
//!   span registry** (leaf locks; no global coordination mutex) — and
//!   accept/reject decisions are bit-identical to a one-shard engine's,
//!   which has no boundary node, registry entry or ghost at all (the
//!   twin oracles build their reference that way).
//! * **GC**: the engine has two deletion rules and no option to
//!   change them. A completed single-shard transaction with no
//!   predecessor goes by the paper's Lemma 1 (C1 is vacuous for it,
//!   and no later arc can reach it); everything else goes by
//!   Corollary 1 — a completed transaction that is *noncurrent* can
//!   always be deleted. The source rule deletes current writers too,
//!   which is safe for the log because the WAL retires a record only
//!   once later records supersede every entity it holds (see the
//!   durability bullet). Deletion happens **at the source** — every
//!   commit, right after its install and under the shard locks it
//!   already holds, tests the candidates its own write just queued
//!   ([`deltx_core::CgState::drain_gc_candidates`]: the overwritten
//!   accessors, itself, and the successors each deleted source
//!   orphans; no full scans) and deletes the single-shard ones either
//!   rule admits, so shard-lock holds stay short and uniform. The
//!   commit offers the multi-shard
//!   candidates among them — itself included — to the multi-shard
//!   deletion under the locks it holds. Deleting a
//!   multi-shard transaction re-materializes the paper's `D(G, N)`
//!   bridges across shard boundaries with *ghost nodes*
//!   ([`deltx_core::CgState::admit_completed_ghost`]), so union
//!   reachability is preserved exactly. A candidate is deleted under
//!   any locks that cover its own registered span, checked under them
//!   before the first mutation: each bridge lands in a locked shard
//!   that already holds both neighbors, or in a ghost in one of the
//!   candidate's own shards. A candidate they do not cover waits in a
//!   pending set, and the committer that brings that set to 32 runs
//!   the standalone pass: it locks only the lead candidate's **own
//!   span**, batches every candidate those locks cover, and takes all
//!   locks only for a lead whose span is every shard or grew under
//!   the pass, instead of stopping the world. The store keeps one
//!   value per entity, so deletion has nothing to prune there. There
//!   is no GC thread: what is left when traffic stops is fewer than 32
//!   multi-shard candidates, and [`Engine::gc_sweep`] drains them on
//!   request ([`Engine::open`] runs it once after the replay).
//! * **Durability** (opt-in via [`EngineConfig::durability`]): a
//!   write-ahead log (`deltx-wal`) with leader/follower group commit
//!   and no thread of its own. Commit records are submitted *while the
//!   shard locks are held* — so the log order of conflicting commits
//!   equals their serialization order — and the client waits for its
//!   LSN's flush only after the locks are released; the first waiter
//!   to find no flush running writes and syncs everything queued, for
//!   itself and the sessions behind it. Supersession is the
//!   checkpoint: a sealed segment is unlinked once every entity it
//!   holds has a newer durable record elsewhere, whatever the graph
//!   did, so [`Engine::open`] replays `O(entities)` records, not the
//!   whole history. [`Engine::inject_crash`] arms simulated
//!   crash points ([`CrashPoint`]) for fault-injection tests; the
//!   protocol and proofs live in `docs/durability.md`.
//! * **Metrics** ([`metrics`]): throughput, aborts, live-graph size,
//!   deletions, GC pause time, and the escalation economics — fast
//!   vs escalated operations, lock-set sizes per acquisition (the
//!   escalated-lock-set and GC-closure histograms), escalations whose
//!   first set went stale, a registry/boundary-mark tripwire,
//!   plus the summary's own maintenance economics: a summary-flush
//!   latency histogram, the boundary-txn index high-water mark, and a
//!   registry-stripe contention counter.
//!
//! A prose walkthrough of the three regimes (per-operation fast path,
//! own-shards escalation, GC closures) and the one locking rule they
//! share (grow a stale lock set and retry), with the soundness argument
//! for each, lives in
//! `docs/architecture.md` at the repository root; the inline versions
//! live in the `ops`, `coord` and `gc` module docs.
//!
//! ## Quickstart
//!
//! ```
//! use deltx_engine::{Engine, EngineConfig};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let mut t = engine.begin();
//! let a = t.read(0).unwrap();
//! t.write(0, a + 10);
//! t.commit().unwrap();
//!
//! let mut t = engine.begin();
//! assert_eq!(t.read(0).unwrap(), 10);
//! t.abort();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coord;
mod engine;
mod gc;
mod history;
pub mod metrics;
mod ops;
mod recovery;
mod seed;
mod session;

pub mod error;

/// Runtime toggles that reintroduce known-fixed bugs, compiled in only
/// with the `planted` feature — targets for the schedule-space search
/// regression tests. Also re-exports the `deltx-graph` toggles so the
/// testkit flips everything through one module.
#[cfg(feature = "planted")]
pub mod planted {
    pub use deltx_graph::planted::{
        bitset_trailing_word_bug, drop_gc_bridge_bug, set_bitset_trailing_word_bug,
        set_drop_gc_bridge_bug,
    };
    pub use deltx_wal::planted::{retry_after_fsync_fail_bug, set_retry_after_fsync_fail_bug};
}

pub use deltx_runtime::{OsRuntime, RtEvent, Runtime};
pub use deltx_wal::{
    CrashPoint, DurabilityConfig, FaultSpec, FaultyStorage, FsStorage, QuarantinedSegment,
    RecoverPolicy, WalError, WalHealth, WalStats, WalStorage, ALL_CRASH_POINTS,
};
pub use engine::{Engine, EngineConfig, RecoveryReport};
pub use error::EngineError;
pub use history::{live_graph_bound, Event, RecordedHistory};
pub use metrics::MetricsSnapshot;
pub use seed::{run_seed, run_seed_arg};
pub use session::Session;
