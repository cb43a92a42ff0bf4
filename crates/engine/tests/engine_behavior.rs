//! Single-threaded behavioral tests of the engine: session semantics,
//! conflict aborts, noncurrent GC, cross-shard soundness, and the
//! ghost-bridged deletion of multi-shard transactions.

use deltx_engine::{Engine, EngineConfig, EngineError};

fn manual_engine(shards: usize) -> Engine {
    Engine::new(EngineConfig {
        shards,
        record_history: true,
        ..EngineConfig::default()
    })
}

#[test]
fn read_your_writes_and_atomic_install() {
    let e = manual_engine(4);
    let mut t = e.begin();
    assert_eq!(t.read(3).unwrap(), 0, "entities spring up as 0");
    t.write(3, 42);
    t.write(7, 9);
    assert_eq!(t.read(3).unwrap(), 42, "own staged write visible");
    assert_eq!(e.peek(3), 0, "nothing installed before commit");
    t.commit().unwrap();
    assert_eq!(e.peek(3), 42);
    assert_eq!(e.peek(7), 9);
    let m = e.metrics();
    assert_eq!(m.commits, 1);
    assert_eq!(m.entities_written, 2);
}

#[test]
fn abort_discards_staged_writes() {
    let e = manual_engine(2);
    let mut t = e.begin();
    t.write(0, 99);
    t.abort();
    assert_eq!(e.peek(0), 0);
    // Dropping without commit also aborts.
    let mut t = e.begin();
    t.write(0, 77);
    drop(t);
    assert_eq!(e.peek(0), 0);
    assert_eq!(e.metrics().aborts_voluntary, 2);
    assert_eq!(e.metrics().live_txns, 0, "no residue in the graph");
}

#[test]
fn single_shard_cycle_aborts_issuer() {
    // The paper's canonical rejection: T1 reads x, T2 reads y then
    // writes x (T1 -> T2), then T1 writes y: T2 -> T1 closes the cycle.
    let e = manual_engine(1);
    let mut t1 = e.begin();
    t1.read(0).unwrap();
    let mut t2 = e.begin();
    t2.read(1).unwrap();
    t2.write(0, 5);
    t2.commit().unwrap();
    t1.write(1, 6);
    let err = t1.commit().unwrap_err();
    assert!(matches!(err, EngineError::Aborted(_)));
    assert_eq!(e.peek(1), 0, "aborted write never installed");
    assert_eq!(e.metrics().aborts_scheduler, 1);
}

#[test]
fn cross_shard_cycle_is_caught() {
    // The interleaving a purely shard-local checker would wrongly
    // accept: x lives in shard 0, y in shard 1; each shard's graph
    // stays acyclic while the union has T1 -> T2 -> T1.
    let e = manual_engine(2);
    let mut t1 = e.begin();
    t1.read(0).unwrap(); // x, shard 0
    let mut t2 = e.begin();
    t2.read(1).unwrap(); // y, shard 1
    t2.write(0, 1); // write x
    t2.commit().unwrap(); // union arc T1 -> T2 (shard 0)
    t1.write(1, 2); // write y: arc T2 -> T1 would close the cycle
    let err = t1.commit().unwrap_err();
    assert!(matches!(err, EngineError::Aborted(_)));
    let m = e.metrics();
    assert_eq!(m.commits, 1);
    assert_eq!(m.aborts_scheduler, 1);
    assert!(m.escalated_ops >= 1, "cross-shard commit escalated");
}

#[test]
fn noncurrent_gc_reclaims_overwritten_writers() {
    // Example 1 generalized: a long reader pins nothing forever under
    // the noncurrent policy — overwritten writers are deleted.
    let e = manual_engine(1);
    let mut reader = e.begin();
    reader.read(0).unwrap();
    for i in 0..50 {
        let mut w = e.begin();
        w.read(0).unwrap();
        w.write(0, i);
        w.commit().unwrap();
        e.gc_sweep();
        // Live: the active reader, the current writer, and at most the
        // writer that just committed this iteration.
        assert!(
            e.graph_size().nodes <= 3,
            "graph must stay bounded, got {}",
            e.graph_size().nodes
        );
    }
    let m = e.metrics();
    assert!(m.gc_deletions >= 48, "overwritten writers reclaimed");
    assert_eq!(
        m.gc_source_deletions, 0,
        "every writer follows the active reader: none is a source"
    );
    assert_eq!(e.peek(0), 49, "current value untouched by deletion");
    // The reader's abort orphans the current writer: a source now.
    drop(reader);
    e.gc_sweep();
    assert_eq!(e.graph_size().nodes, 0);
    assert_eq!(e.metrics().gc_source_deletions, 1);
    assert_eq!(e.peek(0), 49, "its value outlives its node");
}

#[test]
fn gc_never_deletes_active_or_current_with_a_predecessor() {
    let e = manual_engine(2);
    let mut t = e.begin();
    t.read(0).unwrap();
    t.write(0, 1);
    t.commit().unwrap();
    // The sole writer of x has no predecessor: gone at its commit,
    // current or not (Lemma 1), and its value stays.
    let m = e.metrics();
    assert_eq!(
        (m.gc_deletions, m.gc_source_deletions, m.live_txns),
        (1, 1, 0)
    );
    assert_eq!(e.peek(0), 1);
    let mut active = e.begin();
    active.read(0).unwrap();
    let mut w = e.begin();
    w.write(0, 2);
    w.commit().unwrap(); // active -> w
    e.gc_sweep();
    // W is current and follows an active node; the active one is
    // untouchable.
    assert_eq!(e.metrics().gc_deletions, 1, "both survive every sweep");
    assert_eq!(e.metrics().live_txns, 2);
    active.commit().unwrap(); // a source at its commit, and W with it
    let m = e.metrics();
    assert_eq!(
        (m.gc_deletions, m.gc_source_deletions, m.live_txns),
        (3, 3, 0)
    );
    assert_eq!(e.peek(0), 2);
}

#[test]
fn ghost_bridge_preserves_cross_shard_ordering_after_deletion() {
    // A multi-shard transaction T with a predecessor in shard 0 and a
    // successor in shard 1 is GC'd; the D(G, N) bridge across shards is
    // materialized as a ghost. A later step that would invert the
    // bridged order must still abort.
    let e = manual_engine(2);

    let mut a = e.begin(); // A: long-running, reads x (shard 0)
    a.read(0).unwrap();

    let mut t = e.begin(); // T: multi-shard writer of x and y
    t.write(0, 10);
    t.write(1, 20);
    t.commit().unwrap(); // arcs: A -> T (shard 0)

    let mut b = e.begin(); // B: reads y (shard 1): arc T -> B
    b.read(1).unwrap();
    b.write(3, 1); // commit in shard 1 (entity 3 = shard 1)
    b.commit().unwrap();

    // Overwrite both of T's entities so T goes noncurrent.
    let mut w = e.begin();
    w.write(0, 11);
    w.commit().unwrap();
    let mut v = e.begin();
    v.write(1, 21);
    v.commit().unwrap();

    e.gc_sweep();
    let m = e.metrics();
    assert!(m.gc_deletions >= 1, "T reclaimed");
    assert!(
        m.gc_ghosts >= 1,
        "cross-shard bridge needed a ghost (A in shard 1)"
    );

    // Now A -> ... -> B must still be remembered: A writing an entity B
    // read would order B before A and close the (bridged) cycle.
    a.write(1, 99); // y: B read it
    let err = a.commit().unwrap_err();
    assert!(
        matches!(err, EngineError::Aborted(_)),
        "bridged ordering lost: engine accepted a non-serializable commit"
    );
}

#[test]
fn recorded_history_matches_outcomes() {
    let e = manual_engine(2);
    let mut t = e.begin();
    t.read(0).unwrap();
    t.write(1, 7);
    t.commit().unwrap();
    let mut dead = e.begin();
    dead.read(2).unwrap();
    dead.abort();
    let h = e.recorded_history().expect("recording enabled");
    // begin, read, write-all, begin, read, client-abort
    assert_eq!(h.events.len(), 6);
    assert_eq!(h.accepted_steps().len(), 5);
    assert_eq!(h.client_aborted().len(), 1);
}
