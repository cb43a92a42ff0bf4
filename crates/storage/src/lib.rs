//! # deltx-storage — in-memory entity store
//!
//! The paper's model treats entity values as *uninterpreted functions* of
//! the values read; the scheduler never looks at them. This crate gives
//! the examples and integration tests something real to execute against:
//! a store ([`store::Store`]) holding each entity's current value and
//! the transaction that installed it (Corollary 1's *current* notion
//! from the data side), plus per-transaction buffers
//! ([`txnbuf::TxnBuffer`]) implementing the basic model's contract —
//! reads observe the store, writes are deferred and installed
//! **atomically** at the final step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod store;
pub mod txnbuf;

pub use store::{Store, Value, Version};
pub use txnbuf::TxnBuffer;
