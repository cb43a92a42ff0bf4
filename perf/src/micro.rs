//! Layer micro-measures: one number per hot operation of `graph`,
//! `core`, `storage` and `wal`, on fixed inputs, so a regression seen
//! on a workload can be localized without a profiler.
//!
//! Each measure times a batch of identical operations with one pair
//! of clock reads and is repeated [`BATCHES`] times; the median batch
//! is reported per operation. Inputs never depend on `--seed`.

use crate::recording::RecordingStorage;
use crate::report::Outcome;
use crate::stats;
use deltx_core::{c1, noncurrent, CgState};
use deltx_graph::cycle::CycleChecker;
use deltx_graph::{BitSet, DiGraph, NodeId};
use deltx_model::{EntityId, Step, TxnId};
use deltx_storage::{Store, TxnBuffer};
use deltx_wal::{encode_commit, DurabilityConfig, Wal, WalStorage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 15;
const INPUT_SEED: u64 = 0x00D1_C0DE;

/// Median over [`BATCHES`] of `batch()`, which returns the nanoseconds
/// one operation took (its own set-up excluded).
fn measure(mut batch: impl FnMut() -> f64) -> f64 {
    stats::median(&(0..BATCHES).map(|_| batch()).collect::<Vec<_>>())
}

/// Times `ops` runs of `op` with one pair of clock reads.
fn per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..ops {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// A 1 024-node DAG in 32 layers of 32; every node has three arcs
/// into the next layer. Returns the graph and its nodes by layer.
fn layered_dag() -> (DiGraph, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(INPUT_SEED);
    let mut g = DiGraph::with_capacity(1024);
    let nodes: Vec<NodeId> = (0..1024).map(|_| g.add_node()).collect();
    for layer in 0..31 {
        for i in 0..32 {
            for _ in 0..3 {
                g.add_arc(
                    nodes[layer * 32 + i],
                    nodes[(layer + 1) * 32 + rng.gen_range(0..32usize)],
                );
            }
        }
    }
    (g, nodes)
}

fn graph(out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(INPUT_SEED);
    let mut a = BitSet::with_capacity(1024);
    let mut b = BitSet::with_capacity(1024);
    for _ in 0..256 {
        a.insert(rng.gen_range(0..1024));
        b.insert(rng.gen_range(0..1024));
    }
    out.put(
        "graph.bitset_union_ns",
        measure(|| {
            per_op(10_000, |_| {
                black_box(black_box(&mut a).union_with(black_box(&b)));
            })
        }),
    );

    let (g, nodes) = layered_dag();
    let mut checker = CycleChecker::new();
    // Would an arc from a node of the last layers back to one of the
    // first close a cycle? The search runs forward from the target
    // through most of the graph.
    let pairs: Vec<(NodeId, NodeId)> = (0..64)
        .map(|_| {
            (
                nodes[960 + rng.gen_range(0..64usize)],
                nodes[rng.gen_range(0..64usize)],
            )
        })
        .collect();
    out.put(
        "graph.cycle_check_ns",
        measure(|| {
            per_op(pairs.len(), |i| {
                black_box(checker.would_create_cycle(&g, pairs[i].0, pairs[i].1));
            })
        }),
    );
    let fans: Vec<(Vec<NodeId>, NodeId)> = (0..64)
        .map(|_| {
            let mut sources: Vec<NodeId> = (0..4)
                .map(|_| nodes[960 + rng.gen_range(0..64usize)])
                .collect();
            sources.sort_unstable();
            sources.dedup();
            (sources, nodes[rng.gen_range(0..64usize)])
        })
        .collect();
    out.put(
        "graph.fan_in_check_ns",
        measure(|| {
            per_op(fans.len(), |i| {
                black_box(checker.fan_in_would_create_cycle(&g, &fans[i].0, fans[i].1));
            })
        }),
    );
}

const CORE_ENTITIES: u32 = 1024;
const CORE_TXNS: u32 = 1_000;
const CORE_READERS: u32 = 8;

/// Every entity written once, eight long readers that have each read
/// 16 entities and stay active, then 1 000 begun transactions.
fn core_state() -> CgState {
    let mut cg = CgState::new();
    for x in 0..CORE_ENTITIES {
        cg.apply(&Step::begin(x + 1)).expect("begin");
        cg.apply(&Step::write_all(x + 1, [x])).expect("write");
    }
    for r in 0..CORE_READERS {
        cg.apply(&Step::begin(20_000 + r)).expect("begin");
        for k in 0..16 {
            cg.apply(&Step::read(20_000 + r, (r * 128 + k * 8) % CORE_ENTITIES))
                .expect("read");
        }
    }
    for t in 0..CORE_TXNS {
        cg.apply(&Step::begin(10_000 + t)).expect("begin");
    }
    cg
}

fn core(out: &mut Outcome) {
    // One pass over a fresh state yields one sample of each measure.
    // Transaction t reads its own entity and its successor's, then
    // writes its own: a chain of conflicts and no cycle, so every
    // step is accepted and every first writer becomes noncurrent.
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _ in 0..BATCHES {
        let mut cg = core_state();
        let entity = |t: usize| (t as u32 * 7) % CORE_ENTITIES;
        samples[0].push(per_op(2 * CORE_TXNS as usize, |i| {
            let step = Step::read(10_000 + (i / 2) as u32, entity(i / 2 + i % 2));
            black_box(cg.apply(&step).expect("read"));
        }));
        samples[1].push(per_op(CORE_TXNS as usize, |t| {
            let step = Step::write_all(10_000 + t as u32, [entity(t)]);
            black_box(cg.apply(&step).expect("write"));
        }));
        let completed = cg.completed_nodes();
        // C1 searches the graph from every active predecessor: two
        // orders of magnitude above the other measures, so on a sample.
        let tested: Vec<_> = completed.iter().step_by(32).collect();
        samples[2].push(per_op(tested.len(), |i| {
            black_box(c1::holds(&cg, *tested[i]));
        }));
        let t0 = Instant::now();
        let deletable = noncurrent::noncurrent_among(&cg, &completed);
        samples[3].push(t0.elapsed().as_nanos() as f64 / completed.len() as f64);
        assert_eq!(
            deletable.len(),
            CORE_TXNS as usize,
            "each first writer was overwritten once"
        );
        samples[4].push(per_op(deletable.len(), |i| {
            cg.delete(deletable[i]).expect("delete a completed node");
        }));
    }
    let names = [
        "core.apply_read_ns",
        "core.apply_write_ns",
        "core.c1_test_ns",
        "core.noncurrent_among_ns",
        "core.delete_ns",
    ];
    for (name, s) in names.into_iter().zip(&samples) {
        out.put(name, stats::median(s));
    }

    // One batched summary update per commit of a boundary transaction,
    // over a sliding window of 24 live ones: the churn a hot
    // cross-shard pair causes in one shard.
    out.put(
        "core.summary_batch_ns",
        measure(|| {
            let mut cg = CgState::new();
            let mut window = std::collections::VecDeque::new();
            per_op(2_000, |i| {
                let t = i as u32 + 1;
                cg.begin_summary_batch();
                cg.apply(&Step::begin(t)).expect("begin");
                cg.apply(&Step::read(t, t % 4)).expect("read");
                cg.set_boundary(TxnId(t), true);
                cg.apply(&Step::write_all(t, [t % 4])).expect("write");
                cg.end_summary_batch();
                window.push_back(TxnId(t));
                if window.len() > 24 {
                    let victim = cg.node_of(window.pop_front().expect("nonempty"));
                    cg.delete(victim.expect("live")).expect("delete");
                }
            })
        }),
    );
}

fn storage(out: &mut Outcome) {
    out.put(
        "storage.install_ns",
        measure(|| {
            let mut store = Store::new();
            per_op(10_000, |i| {
                let mut buf = TxnBuffer::new(TxnId(i as u32 + 1));
                buf.stage_write(EntityId(i as u32 % 1024), 1);
                buf.stage_write(EntityId((i as u32 * 7 + 3) % 1024), -1);
                buf.install(&mut store);
            })
        }),
    );
    out.put(
        "storage.truncate_versions_ns",
        measure(|| {
            // 1 024 entities with 8 versions each; every writer but the
            // newest of each entity is deleted, 64 writers per call, as
            // the engine's GC does with the entities it knows they wrote.
            let mut store = Store::new();
            for v in 0..8u32 {
                for x in 0..1024u32 {
                    store.write(EntityId(x), i64::from(v), TxnId(v * 1024 + x + 1));
                }
            }
            let calls: Vec<(Vec<TxnId>, Vec<EntityId>)> = (0..7u32)
                .flat_map(|v| (0..16u32).map(move |c| (v, c)))
                .map(|(v, c)| {
                    let xs = c * 64..(c + 1) * 64;
                    (
                        xs.clone().map(|x| TxnId(v * 1024 + x + 1)).collect(),
                        xs.map(EntityId).collect(),
                    )
                })
                .collect();
            let per_call = per_op(calls.len(), |i| {
                black_box(store.truncate_versions_in(&calls[i].0, &calls[i].1));
            });
            assert_eq!(
                store.total_versions(),
                1024,
                "only the newest versions remain"
            );
            per_call / 64.0
        }),
    );
}

fn wal(out: &mut Outcome) {
    let writes = [(EntityId(17), 1_000i64), (EntityId(25), -1_000i64)];
    out.put(
        "wal.encode_commit_ns",
        measure(|| {
            per_op(10_000, |i| {
                black_box(encode_commit(
                    i as u64,
                    TxnId(i as u32),
                    black_box(&writes),
                    &[1],
                ));
            })
        }),
    );

    // One caller, so every commit is its own group: the full round
    // trip through the writer thread and back.
    let dir = crate::out_dir().join(format!("micro-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage: Arc<dyn WalStorage> = Arc::new(RecordingStorage::new(&dir, None));
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.storage = Some(storage);
    let (wal, _, _) = Wal::open(cfg).expect("open micro-measure log");
    let mut txn = 0;
    out.put(
        "wal.submit_wait_us",
        measure(|| {
            per_op(200, |_| {
                txn += 1;
                let lsn = wal
                    .submit_commit(TxnId(txn), &writes, &[1])
                    .expect("submit");
                wal.wait_durable(lsn).expect("durable");
            })
        }) / 1e3,
    );
    wal.close();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every micro-measure, in schema order.
pub fn run(out: &mut Outcome) {
    graph(out);
    core(out);
    storage(out);
    wal(out);
}
