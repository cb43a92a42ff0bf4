//! # deltx-storage — versioned in-memory entity store
//!
//! The paper's model treats entity values as *uninterpreted functions* of
//! the values read; the scheduler never looks at them. This crate gives
//! the examples and integration tests something real to execute against:
//! a multi-version store ([`store::Store`]) that remembers which
//! transaction installed each version (feeding Corollary 1's *current*
//! test from the data side), plus per-transaction buffers
//! ([`txnbuf::TxnBuffer`]) implementing the basic model's contract —
//! reads observe the store, writes are deferred and installed
//! **atomically** at the final step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The inline list type of `deltx-graph`, compiled here from the same
// source: this crate depends on `deltx-model` alone.
#[path = "../../graph/src/smallvec.rs"]
#[allow(dead_code)] // the store uses part of the list's API
mod smallvec;
pub mod store;
pub mod txnbuf;

pub use store::{Store, Value, Version};
pub use txnbuf::TxnBuffer;
