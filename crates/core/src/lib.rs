//! # deltx-core — the paper's contribution
//!
//! Everything Hadzilacos & Yannakakis prove in *"Deleting Completed
//! Transactions"* (PODS '86 / JCSS '89), executable:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`cg`] | §2: the conflict-graph scheduler state machine (Rules 1–3), reduced graphs, the deletion transformation `D(G, N)` |
//! | [`tight`] | §3: *tight* predecessor/successor queries |
//! | [`c1`] | Theorem 1 / Theorem 3: the necessary & sufficient single-deletion condition |
//! | [`c2`] | Theorem 4: the set-deletion condition |
//! | [`noncurrent`] | Corollary 1: noncurrent transactions are removable |
//! | [`witness`] | §4 close: the `a·e` bound on irreducible graphs via distinct witnesses |
//! | [`policy`] | §4: deletion policies (Theorem 2 machinery), safe and deliberately unsafe |
//! | [`oracle`] | Lemma 2/3 safety, checked by brute force + the proofs' constructive witnesses |
//! | [`mw`] | §5: the multiple-write model (A/F/C states, cascading aborts) |
//! | [`c3`] | §5 / Lemma 4 / Theorem 6: condition C3 and its exponential checker |
//! | [`pre`] | §5: the predeclared scheduler (Rules 1′–3′, delays instead of aborts) |
//! | [`c4`] | §5 / Theorem 7: condition C4 (with the clause-2 fix over the PODS '86 version) |
//! | [`pre_oracle`] | Theorem 7 safety, checked by the proof's constructive witness + random search |
//! | [`examples_paper`] | Figures 1, 2 and 4 as constructed objects |
//! | [`reduced`] | §4: reduced-graph well-formedness validators |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c1;
pub mod c2;
pub mod c3;
pub mod c4;
pub mod cg;
pub mod error;
pub mod examples_paper;
pub mod mw;
pub mod noncurrent;
pub mod oracle;
pub mod policy;
pub mod pre;
pub mod pre_oracle;
pub mod reduced;
pub mod tight;
pub mod witness;

pub use cg::{Accesses, Applied, CgState, CycleStrategy, NodeInfo, TxnState};
pub use error::CgError;
