//! End-to-end *value* serializability: execute a workload against real
//! storage under the conflict-graph scheduler, then replay the accepted
//! transactions **serially** in a conflict-compatible order and check the
//! final database states match.
//!
//! This is the semantic guarantee behind §2's conflict-serializability:
//! acyclic conflict graph ⟹ some serial order yields the same reads and
//! final state for every interpretation of the transactions' functions.
//! Our interpretation: each transaction writes `sum(reads) + txn_id` to
//! every entity of its write set.

use deltx::core::{Applied, CgState};
use deltx::model::history::conflict_relation;
use deltx::model::workload::{WorkloadConfig, WorkloadGen};
use deltx::model::{EntityId, IdSet, Op, Schedule, Step, TxnId};
use deltx::storage::{Store, TxnBuffer};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Executes `steps` interleaved against storage; returns the final store
/// and the executed (accepted) steps.
fn execute_interleaved(steps: &[Step]) -> (Store, Vec<Step>, IdSet<TxnId>) {
    let mut cg = CgState::new();
    let mut store = Store::new();
    let mut bufs: HashMap<TxnId, TxnBuffer> = HashMap::new();
    let mut executed: Vec<Step> = Vec::new();
    for step in steps {
        match cg.apply(step).expect("well-formed") {
            Applied::Accepted => {
                match &step.op {
                    Op::Begin => {
                        bufs.insert(step.txn, TxnBuffer::new(step.txn));
                    }
                    Op::Read(x) => {
                        bufs.get_mut(&step.txn).expect("begun").read(&store, *x);
                    }
                    Op::WriteAll(xs) => {
                        let buf = bufs.get_mut(&step.txn).expect("begun");
                        let sum: i64 = buf.read_log().iter().map(|&(_, v)| v).sum();
                        for &x in xs {
                            buf.stage_write(x, sum + i64::from(step.txn.0));
                        }
                        buf.install(&mut store);
                    }
                    _ => unreachable!("basic model only"),
                }
                executed.push(step.clone());
            }
            Applied::SelfAborted | Applied::IgnoredAborted => {
                bufs.remove(&step.txn);
            }
        }
    }
    (store, executed, cg.aborted_txns().clone())
}

/// Replays complete transactions serially in `order` with the same value
/// functions; returns the final store.
fn execute_serial(
    programs: &BTreeMap<TxnId, (Vec<EntityId>, Vec<EntityId>)>,
    order: &[TxnId],
) -> Store {
    let mut store = Store::new();
    for &t in order {
        let (reads, writes) = &programs[&t];
        let mut buf = TxnBuffer::new(t);
        for &x in reads {
            buf.read(&store, x);
        }
        let sum: i64 = buf.read_log().iter().map(|&(_, v)| v).sum();
        for &x in writes {
            buf.stage_write(x, sum + i64::from(t.0));
        }
        buf.install(&mut store);
    }
    store
}

/// Topological order of the accepted transactions w.r.t. the static
/// conflict relation of the executed steps.
fn serial_order(executed: &[Step]) -> Vec<TxnId> {
    let rel = conflict_relation(&Schedule::from_steps(executed.to_vec()));
    // Kahn over the txn-level relation.
    let mut indeg: BTreeMap<TxnId, usize> = rel.txns.iter().map(|&t| (t, 0)).collect();
    for bs in rel.succ.values() {
        for b in bs {
            *indeg.get_mut(b).expect("known txn") += 1;
        }
    }
    let mut ready: Vec<TxnId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&t, _)| t)
        .collect();
    let mut out = Vec::new();
    while let Some(t) = ready.pop() {
        out.push(t);
        if let Some(bs) = rel.succ.get(&t) {
            for &b in bs {
                let d = indeg.get_mut(&b).expect("known");
                *d -= 1;
                if *d == 0 {
                    ready.push(b);
                }
            }
        }
    }
    assert_eq!(out.len(), rel.txns.len(), "accepted graph must be acyclic");
    out
}

#[test]
fn interleaved_equals_some_serial_execution() {
    for seed in 0..6u64 {
        let cfg = WorkloadConfig {
            n_entities: 5,
            concurrency: 4,
            total_txns: 50,
            seed: 900 + seed,
            ..WorkloadConfig::default()
        };
        let steps: Vec<Step> = WorkloadGen::new(cfg).collect();
        let (store, executed, _aborted) = execute_interleaved(&steps);

        // Reconstruct per-transaction programs from the executed steps of
        // COMPLETE transactions only.
        let mut programs: BTreeMap<TxnId, (Vec<EntityId>, Vec<EntityId>)> = BTreeMap::new();
        let mut complete: HashSet<TxnId> = HashSet::new();
        for s in &executed {
            match &s.op {
                Op::Begin => {
                    programs.insert(s.txn, (Vec::new(), Vec::new()));
                }
                Op::Read(x) => programs.get_mut(&s.txn).expect("begun").0.push(*x),
                Op::WriteAll(xs) => {
                    programs.get_mut(&s.txn).expect("begun").1 = xs.clone();
                    complete.insert(s.txn);
                }
                _ => unreachable!(),
            }
        }
        // Keep only complete transactions (incomplete ones wrote nothing).
        let executed_complete: Vec<Step> = executed
            .iter()
            .filter(|s| complete.contains(&s.txn))
            .cloned()
            .collect();
        programs.retain(|t, _| complete.contains(t));

        let order = serial_order(&executed_complete);
        let serial_store = execute_serial(&programs, &order);

        // Final states must agree on every entity either execution wrote.
        let mut entities: Vec<EntityId> = store.written_entities();
        entities.extend(serial_store.written_entities());
        entities.sort_unstable();
        entities.dedup();
        for x in entities {
            assert_eq!(
                store.read(x),
                serial_store.read(x),
                "seed {seed}: divergent final value of {x:?}"
            );
        }
    }
}
