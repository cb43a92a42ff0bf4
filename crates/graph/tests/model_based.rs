//! Model-based property tests: `DiGraph` against a naive
//! adjacency-set reference, `Closure` against per-query DFS, restricted
//! reachability against brute-force simple-path enumeration, and
//! `topo_order` against its own validator — all over random operation
//! sequences with shrinking.

use deltx_graph::cycle::CycleChecker;
use deltx_graph::{paths, topo, Closure, DiGraph, NodeId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Reference model: adjacency sets keyed by a stable external id.
#[derive(Default)]
struct RefGraph {
    succs: BTreeMap<usize, BTreeSet<usize>>,
}

#[derive(Clone, Debug)]
enum GraphOp {
    AddNode,
    RemoveNode(usize),
    AddArc(usize, usize),
    RemoveArc(usize, usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<GraphOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(GraphOp::AddNode),
            1 => (0usize..12).prop_map(GraphOp::RemoveNode),
            4 => ((0usize..12), (0usize..12)).prop_map(|(a, b)| GraphOp::AddArc(a, b)),
            1 => ((0usize..12), (0usize..12)).prop_map(|(a, b)| GraphOp::RemoveArc(a, b)),
        ],
        1..40,
    )
}

/// More than twice the ids `DiGraph` keeps inline per adjacency list
/// (six), so a hub's lists spill to the heap and shrink back.
const HUB_SPOKES: std::ops::Range<usize> = 13..21;

/// A hub-heavy op sequence: node 0 gets `p` predecessors and `s`
/// successors, some of its arcs are removed, a few random ops run, and
/// then the hub itself is removed.
fn arb_hub_ops() -> impl Strategy<Value = Vec<GraphOp>> {
    (
        HUB_SPOKES,
        HUB_SPOKES,
        prop::collection::vec(0usize..40, 0..24),
        arb_ops(),
    )
        .prop_map(|(p, s, cuts, tail)| {
            let mut ops = vec![GraphOp::AddNode; 1 + p + s];
            ops.extend((1..=p).map(|i| GraphOp::AddArc(i, 0)));
            ops.extend((p + 1..=p + s).map(|i| GraphOp::AddArc(0, i)));
            for c in cuts {
                let spoke = 1 + c % (p + s);
                ops.push(if spoke <= p {
                    GraphOp::RemoveArc(spoke, 0)
                } else {
                    GraphOp::RemoveArc(0, spoke)
                });
            }
            ops.extend(
                tail.into_iter()
                    .filter(|op| !matches!(op, GraphOp::RemoveNode(_))),
            );
            ops.push(GraphOp::RemoveNode(0));
            ops
        })
}

/// Replays `ops` on a `DiGraph` and on the reference model, comparing
/// the full state after every op, and the lists `remove_node` hands
/// back against the model's arcs at the moment of removal.
fn replay_against_model(ops: Vec<GraphOp>) {
    let mut g = DiGraph::new();
    let mut model = RefGraph::default();
    // external id -> live NodeId
    let mut live: Vec<(usize, NodeId)> = Vec::new();
    let mut next_ext = 0usize;
    let ext_of =
        |live: &[(usize, NodeId)], m: NodeId| live.iter().find(|&&(_, n)| n == m).unwrap().0;

    for op in ops {
        match op {
            GraphOp::AddNode => {
                let n = g.add_node();
                model.succs.insert(next_ext, BTreeSet::new());
                live.push((next_ext, n));
                next_ext += 1;
            }
            GraphOp::RemoveNode(i) => {
                if live.is_empty() {
                    continue;
                }
                let (ext, n) = live.remove(i % live.len());
                let want_preds: Vec<usize> = model
                    .succs
                    .iter()
                    .filter(|(_, s)| s.contains(&ext))
                    .map(|(&p, _)| p)
                    .collect();
                let want_succs: Vec<usize> = model.succs[&ext].iter().copied().collect();
                let (preds, succs) = g.remove_node(n);
                prop_assert!(preds.windows(2).all(|w| w[0] < w[1]), "preds unsorted");
                prop_assert!(succs.windows(2).all(|w| w[0] < w[1]), "succs unsorted");
                let mut got_preds: Vec<usize> = preds.iter().map(|&m| ext_of(&live, m)).collect();
                let mut got_succs: Vec<usize> = succs.iter().map(|&m| ext_of(&live, m)).collect();
                got_preds.sort_unstable();
                got_succs.sort_unstable();
                prop_assert_eq!(got_preds, want_preds);
                prop_assert_eq!(got_succs, want_succs);
                model.succs.remove(&ext);
                for (_, s) in model.succs.iter_mut() {
                    s.remove(&ext);
                }
            }
            GraphOp::AddArc(a, b) => {
                if live.len() < 2 {
                    continue;
                }
                let (ea, na) = live[a % live.len()];
                let (eb, nb) = live[b % live.len()];
                if na == nb {
                    continue;
                }
                g.add_arc(na, nb);
                model.succs.get_mut(&ea).unwrap().insert(eb);
            }
            GraphOp::RemoveArc(a, b) => {
                if live.len() < 2 {
                    continue;
                }
                let (ea, na) = live[a % live.len()];
                let (eb, nb) = live[b % live.len()];
                g.remove_arc(na, nb);
                model.succs.get_mut(&ea).unwrap().remove(&eb);
            }
        }
        // Full-state comparison.
        prop_assert_eq!(g.node_count(), model.succs.len());
        let model_arcs: usize = model.succs.values().map(BTreeSet::len).sum();
        prop_assert_eq!(g.arc_count(), model_arcs);
        for &(ea, na) in &live {
            prop_assert!(
                g.succs(na).windows(2).all(|w| w[0] < w[1]),
                "succs unsorted"
            );
            prop_assert!(
                g.preds(na).windows(2).all(|w| w[0] < w[1]),
                "preds unsorted"
            );
            let expect: Vec<usize> = model.succs[&ea].iter().copied().collect();
            let mut got: Vec<usize> = g.succs(na).iter().map(|&nb| ext_of(&live, nb)).collect();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
            // preds consistent with succs
            for &p in g.preds(na) {
                prop_assert!(g.succs(p).contains(&na));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn digraph_matches_reference_model(ops in arb_ops()) {
        replay_against_model(ops);
    }

    #[test]
    fn digraph_hub_spills_and_matches_reference_model(ops in arb_hub_ops()) {
        replay_against_model(ops);
    }

    #[test]
    fn closure_matches_dfs_under_mutation(ops in arb_ops()) {
        let mut g = DiGraph::new();
        let mut c = Closure::new();
        let mut live: Vec<NodeId> = Vec::new();
        for op in ops {
            match op {
                GraphOp::AddNode => {
                    let n = g.add_node();
                    c.on_add_node(n);
                    live.push(n);
                }
                GraphOp::RemoveNode(i) => {
                    if live.is_empty() { continue; }
                    let n = live.remove(i % live.len());
                    // Alternate deletion flavours: bridged for even idx.
                    if n.index().is_multiple_of(2) {
                        let (preds, succs) = g.remove_node(n);
                        for &p in &preds {
                            for &s in &succs {
                                if p != s {
                                    g.add_arc(p, s);
                                }
                            }
                        }
                        c.on_delete_node(n);
                    } else {
                        g.remove_node(n);
                        c.on_abort_node(&g, n);
                    }
                }
                GraphOp::AddArc(a, b) => {
                    if live.len() < 2 { continue; }
                    let na = live[a % live.len()];
                    let nb = live[b % live.len()];
                    if na == nb { continue; }
                    // Keep the graph acyclic, as the scheduler does: skip
                    // arcs that would close a cycle (bridged deletions
                    // preserve reachability only on DAGs).
                    let mut ck = CycleChecker::new();
                    if ck.would_create_cycle(&g, na, nb) { continue; }
                    if g.add_arc(na, nb) {
                        c.on_add_arc(na, nb);
                    }
                }
                GraphOp::RemoveArc(..) => {
                    // Closure does not support arc removal (the scheduler
                    // never removes single arcs); skip.
                }
            }
            let mut ck = CycleChecker::new();
            for &a in &live {
                for &b in &live {
                    if a != b {
                        prop_assert_eq!(
                            c.reachable(a, b),
                            ck.reachable(&g, a, b),
                            "closure drift {:?}->{:?}", a, b
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn restricted_reachability_matches_bruteforce(
        arcs in prop::collection::vec(((0usize..7), (0usize..7)), 0..16),
        blocked in prop::collection::btree_set(0usize..7, 0..4),
    ) {
        let mut g = DiGraph::new();
        let nodes: Vec<NodeId> = (0..7).map(|_| g.add_node()).collect();
        for (a, b) in arcs {
            if a != b {
                g.add_arc(nodes[a], nodes[b]);
            }
        }
        // Brute force: DFS over simple paths with allowed intermediates.
        fn bf(
            g: &DiGraph,
            cur: NodeId,
            to: NodeId,
            allow: &dyn Fn(NodeId) -> bool,
            seen: &mut BTreeSet<NodeId>,
        ) -> bool {
            for &s in g.succs(cur) {
                if s == to {
                    return true;
                }
                if allow(s) && seen.insert(s)
                    && bf(g, s, to, allow, seen) {
                        return true;
                    }
                    // keep `seen` monotone: simple-path pruning is safe
                    // for reachability.
            }
            false
        }
        let allow = |n: NodeId| !blocked.contains(&n.index());
        for &a in &nodes {
            for &b in &nodes {
                if a == b { continue; }
                let mut seen = BTreeSet::from([a]);
                let expect = bf(&g, a, b, &allow, &mut seen);
                prop_assert_eq!(
                    paths::reachable_via(&g, a, b, allow),
                    expect,
                    "{:?} -> {:?} (blocked {:?})", a, b, blocked
                );
            }
        }
    }

    #[test]
    fn topo_order_exists_iff_acyclic(
        arcs in prop::collection::vec(((0usize..8), (0usize..8)), 0..20),
    ) {
        let mut g = DiGraph::new();
        let nodes: Vec<NodeId> = (0..8).map(|_| g.add_node()).collect();
        for (a, b) in arcs {
            if a != b {
                g.add_arc(nodes[a], nodes[b]);
            }
        }
        let acyclic = deltx_graph::cycle::is_acyclic(&g);
        prop_assert_eq!(acyclic, !deltx_graph::scc::has_cycle_scc(&g));
        match topo::topo_order(&g) {
            Some(order) => {
                prop_assert!(acyclic);
                prop_assert!(topo::is_topo_order(&g, &order));
            }
            None => prop_assert!(!acyclic),
        }
    }
}
