//! # deltx-model — transactions, schedules, workloads
//!
//! The shared vocabulary of the workspace, following §2 of Hadzilacos &
//! Yannakakis: a *database* is a set of entities; a *transaction* is a
//! sequence of read/write steps; a *schedule* is an interleaved execution.
//!
//! Three transaction models appear in the paper and are all representable
//! here:
//!
//! 1. **Atomic-write model** (§2, the basic model): a transaction is a
//!    sequence of reads followed by one final, atomic, multi-entity write
//!    ([`Op::WriteAll`]) that also *completes* it.
//! 2. **Multiple-write model** (§5): arbitrary interleavings of
//!    single-entity reads and writes ([`Op::Write`]), terminated by
//!    [`Op::Finish`]; commitment is deferred until the transaction no
//!    longer depends on active ones.
//! 3. **Predeclared model** (§5): same step structure as (1) but the full
//!    read/write sets are declared at BEGIN ([`TxnSpec`] carries the
//!    declaration).
//!
//! The crate also provides a small text DSL ([`dsl`]) used pervasively in
//! tests and examples (`"b1 r1(x) b2 r2(x) w2(x)"`), ground-truth history
//! analysis ([`history`]: the static conflict graph and the CSR test,
//! independent of any scheduler), and seeded workload generators
//! ([`workload`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsl;
pub mod history;
pub mod ids;
pub mod schedule;
pub mod step;
pub mod txn;
pub mod workload;

pub use ids::{EntityId, IdBuildHasher, IdHasher, IdMap, IdSet, TxnId};
pub use schedule::{EntityTable, Schedule};
pub use step::{AccessMode, Op, Step};
pub use txn::TxnSpec;
