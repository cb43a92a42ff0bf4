//! # deltx-graph — directed-graph substrate for conflict-graph schedulers
//!
//! This crate provides the graph machinery that the paper's schedulers are
//! built on:
//!
//! * [`DiGraph`]: a slab-indexed directed graph with stable node ids,
//!   deterministic (sorted) adjacency iteration, and O(degree) arc updates.
//! * [`cycle`]: incremental acyclicity checking — "would adding this arc
//!   create a cycle?" — implemented as a reverse-reachability DFS, which is
//!   what a conflict-graph scheduler runs on every step (Rules 1–3 of §2).
//! * [`closure`]: an incrementally maintained transitive closure
//!   ([`closure::Closure`]), the alternative implementation the paper
//!   mentions in §3: *"If the cycle-checking algorithm keeps track of the
//!   transitive closure of the graph ... then removing a transaction is
//!   equivalent to simply deleting the corresponding node and incident
//!   edges from the transitive closure."* Benchmarked against per-query
//!   DFS in experiment E13.
//! * [`paths`]: reachability queries with *restricted intermediate nodes*,
//!   the primitive behind the paper's **tight** predecessor/successor
//!   relations (§3) and **FC-paths** (§5).
//! * [`scc`] and [`topo`]: Tarjan strongly-connected components and
//!   topological ordering, used for validation and for serializing
//!   accepted schedules.
//! * [`bitset`]: a from-scratch fixed-size bitset ([`bitset::BitSet`])
//!   backing the transitive closure.
//! * [`smallvec`]: a list stored inline up to a small capacity
//!   ([`SmallVec`]), which keeps adjacency and the scheduler's per-node
//!   and per-entity lists inside the records that own them.
//! * [`dot`]: Graphviz and ASCII rendering used to regenerate the paper's
//!   figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod closure;
pub mod cycle;
pub mod digraph;
pub mod dot;
pub mod paths;
pub mod scc;
pub mod smallvec;
pub mod topo;

/// Runtime toggles that reintroduce known-fixed bugs, compiled in only
/// with the `planted` feature. They exist so the schedule-space search
/// regression tests can assert `sim_search` *rediscovers* each bug
/// within a bounded budget; production builds never contain this code.
#[cfg(feature = "planted")]
pub mod planted {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRAILING_WORD_BUG: AtomicBool = AtomicBool::new(false);

    /// Re-plants the PR-4 `BitSet` trailing-word bug family: equality
    /// ignores nonzero words past the shorter operand's capacity, and
    /// `copy_from` leaves the destination's tail words stale.
    pub fn set_bitset_trailing_word_bug(on: bool) {
        TRAILING_WORD_BUG.store(on, Ordering::SeqCst);
    }

    /// Whether the trailing-word bug is currently planted.
    pub fn bitset_trailing_word_bug() -> bool {
        TRAILING_WORD_BUG.load(Ordering::Relaxed)
    }

    static DROP_GC_BRIDGE: AtomicBool = AtomicBool::new(false);

    /// Re-plants a dropped `D(G, N)` bridge: deletion skips the
    /// pred x succ bridging arcs, silently losing ordering constraints
    /// across deleted transactions. Lives here (the dependency root)
    /// so both the core delete path and the engine's cross-shard
    /// ghost bridging read one toggle.
    pub fn set_drop_gc_bridge_bug(on: bool) {
        DROP_GC_BRIDGE.store(on, Ordering::SeqCst);
    }

    /// Whether the drop-bridge bug is currently planted.
    pub fn drop_gc_bridge_bug() -> bool {
        DROP_GC_BRIDGE.load(Ordering::Relaxed)
    }
}

pub use bitset::BitSet;
pub use closure::Closure;
pub use digraph::{AdjList, DiGraph, NodeId};
pub use smallvec::SmallVec;
