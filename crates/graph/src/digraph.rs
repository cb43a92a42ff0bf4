//! Slab-indexed directed graph with stable node ids.
//!
//! The conflict graph of the paper is a dynamic object: nodes are added on
//! BEGIN steps, removed on aborts and on *deletions* of completed
//! transactions, and arcs are added by Rules 1–3. [`DiGraph`] supports
//! exactly this life cycle:
//!
//! * node ids ([`NodeId`]) are stable across unrelated insertions and
//!   removals (a free-list slab);
//! * adjacency lists are kept **sorted**, so iteration order is
//!   deterministic and membership tests are `O(log degree)`;
//! * each node's predecessor and successor lists are stored **inline** in
//!   its slab slot up to a small capacity (six ids each, sized from the
//!   in-situ degree of about two predecessors and four or five successors)
//!   and spill to the heap above it, so a step that touches a node touches
//!   that node's slot and no separate allocation;
//! * removal of a node cleans up both directions of every incident arc and
//!   hands its lists back as they were stored, without copying them.
//!
//! Higher-level operations (cycle checks, restricted paths, SCC, topo
//! order) live in sibling modules and operate on `&DiGraph`.

use crate::smallvec::SmallVec;

/// A stable handle to a node in a [`DiGraph`].
///
/// Ids are slab indices: they may be reused after [`DiGraph::remove_node`],
/// but are never invalidated by operations on *other* nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw slab index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index (for deserialization/testing).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index overflow"))
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, Debug)]
enum Slot {
    Vacant { next_free: Option<u32> },
    Occupied(Adj),
}

/// Ids a node keeps inline in each of its two adjacency lists.
const ADJ_INLINE: usize = 6;

/// One adjacency list of a node: sorted ascending, inline up to six
/// ids. [`DiGraph::remove_node`] returns the removed node's two lists
/// in this form.
pub type AdjList = SmallVec<NodeId, ADJ_INLINE>;

#[derive(Clone, Debug, Default)]
struct Adj {
    /// Immediate predecessors, sorted ascending.
    preds: AdjList,
    /// Immediate successors, sorted ascending.
    succs: AdjList,
}

/// A directed graph over slab-allocated nodes.
///
/// Parallel arcs are collapsed (the arc set is a set); self-loops are
/// rejected by [`DiGraph::add_arc`] with a panic in debug builds — the
/// conflict graph never contains them because arcs always point from an
/// earlier step of one transaction to a later step of a *different* one.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    slots: Vec<Slot>,
    free_head: Option<u32>,
    node_count: usize,
    arc_count: usize,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `n` nodes before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of arcs.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Upper bound (exclusive) on raw indices of live nodes.
    ///
    /// Useful for sizing side tables indexed by [`NodeId::index`].
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True if `n` refers to a live node.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        matches!(self.slots.get(n.index()), Some(Slot::Occupied(_)))
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        match self.free_head {
            Some(i) => {
                let next = match self.slots[i as usize] {
                    Slot::Vacant { next_free } => next_free,
                    Slot::Occupied(_) => unreachable!("free list points at occupied slot"),
                };
                self.free_head = next;
                self.slots[i as usize] = Slot::Occupied(Adj::default());
                self.node_count += 1;
                NodeId(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("graph too large");
                self.slots.push(Slot::Occupied(Adj::default()));
                self.node_count += 1;
                NodeId(i)
            }
        }
    }

    fn adj(&self, n: NodeId) -> &Adj {
        match &self.slots[n.index()] {
            Slot::Occupied(a) => a,
            Slot::Vacant { .. } => panic!("use of removed node {n:?}"),
        }
    }

    fn adj_mut(&mut self, n: NodeId) -> &mut Adj {
        match &mut self.slots[n.index()] {
            Slot::Occupied(a) => a,
            Slot::Vacant { .. } => panic!("use of removed node {n:?}"),
        }
    }

    /// Immediate successors of `n`, sorted ascending.
    #[inline]
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.adj(n).succs
    }

    /// Immediate predecessors of `n`, sorted ascending.
    #[inline]
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.adj(n).preds
    }

    /// True if the arc `a -> b` is present.
    #[inline]
    pub fn has_arc(&self, a: NodeId, b: NodeId) -> bool {
        self.contains(a) && self.adj(a).succs.binary_search(&b).is_ok()
    }

    /// Adds the arc `a -> b`. Returns `true` if the arc is new.
    ///
    /// # Panics
    /// Panics if either endpoint is not live, or (debug only) on a
    /// self-loop.
    pub fn add_arc(&mut self, a: NodeId, b: NodeId) -> bool {
        debug_assert!(a != b, "self-loop {a:?} -> {b:?}");
        assert!(self.contains(b), "arc target {b:?} not live");
        if !self.adj_mut(a).succs.insert_sorted(b) {
            return false;
        }
        let fresh = self.adj_mut(b).preds.insert_sorted(a);
        assert!(fresh, "asymmetric adjacency");
        self.arc_count += 1;
        true
    }

    /// Removes the arc `a -> b` if present. Returns `true` if removed.
    pub fn remove_arc(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.contains(a) || !self.contains(b) {
            return false;
        }
        if !self.adj_mut(a).succs.remove_sorted(&b) {
            return false;
        }
        let present = self.adj_mut(b).preds.remove_sorted(&a);
        assert!(present, "asymmetric adjacency");
        self.arc_count -= 1;
        true
    }

    /// Removes node `n` and all incident arcs, returning its predecessor
    /// and successor lists (used by the *deletion* transformation `D(G,N)`
    /// of §4, which bridges preds to succs). The lists are moved out of
    /// the slot as they are, so an inline list costs no allocation.
    pub fn remove_node(&mut self, n: NodeId) -> (AdjList, AdjList) {
        let Adj { preds, succs } = std::mem::take(self.adj_mut(n));
        for &p in &preds {
            let present = self.adj_mut(p).succs.remove_sorted(&n);
            assert!(present, "asymmetric adjacency");
        }
        for &s in &succs {
            let present = self.adj_mut(s).preds.remove_sorted(&n);
            assert!(present, "asymmetric adjacency");
        }
        self.arc_count -= preds.len() + succs.len();
        self.slots[n.index()] = Slot::Vacant {
            next_free: self.free_head,
        };
        self.free_head = Some(n.0);
        self.node_count -= 1;
        (preds, succs)
    }

    /// Iterates live node ids in ascending index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied(_) => Some(NodeId(i as u32)),
            Slot::Vacant { .. } => None,
        })
    }

    /// Iterates all arcs as `(from, to)` pairs.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |n| self.succs(n).iter().map(move |&s| (n, s)))
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.adj(n).succs.len()
    }

    /// In-degree of `n`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.adj(n).preds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(g: &mut DiGraph, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| g.add_node()).collect()
    }

    #[test]
    fn add_and_query_arcs() {
        let mut g = DiGraph::new();
        let v = nodes(&mut g, 3);
        assert!(g.add_arc(v[0], v[1]));
        assert!(!g.add_arc(v[0], v[1]), "parallel arcs collapse");
        assert!(g.add_arc(v[1], v[2]));
        assert!(g.has_arc(v[0], v[1]));
        assert!(!g.has_arc(v[1], v[0]));
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.succs(v[0]), &[v[1]]);
        assert_eq!(g.preds(v[2]), &[v[1]]);
        assert_eq!(g.out_degree(v[1]), 1);
        assert_eq!(g.in_degree(v[1]), 1);
    }

    #[test]
    fn remove_node_cleans_incident_arcs() {
        let mut g = DiGraph::new();
        let v = nodes(&mut g, 4);
        g.add_arc(v[0], v[1]);
        g.add_arc(v[1], v[2]);
        g.add_arc(v[3], v[1]);
        let (preds, succs) = g.remove_node(v[1]);
        assert_eq!(preds[..], [v[0], v[3]]);
        assert_eq!(succs[..], [v[2]]);
        assert_eq!(g.arc_count(), 0);
        assert_eq!(g.node_count(), 3);
        assert!(!g.contains(v[1]));
        assert!(g.succs(v[0]).is_empty());
        assert!(g.preds(v[2]).is_empty());
    }

    #[test]
    fn adjacency_is_inline_up_to_capacity() {
        let mut g = DiGraph::new();
        let v = nodes(&mut g, 2 * ADJ_INLINE + 2);
        let hub = v[0];
        let spilled = |g: &DiGraph| {
            let a = g.adj(hub);
            (a.preds.spilled(), a.succs.spilled())
        };
        for i in 1..=ADJ_INLINE {
            g.add_arc(v[i], hub);
            g.add_arc(hub, v[ADJ_INLINE + i]);
        }
        assert_eq!(spilled(&g), (false, false), "no allocation at capacity");
        g.add_arc(v[2 * ADJ_INLINE + 1], hub);
        assert_eq!(spilled(&g), (true, false));
        assert_eq!(g.preds(hub).len(), ADJ_INLINE + 1);
        assert!(g.preds(hub).windows(2).all(|w| w[0] < w[1]));
        let (preds, succs) = g.remove_node(hub);
        assert!(preds.spilled() && !succs.spilled(), "handed back as stored");
        assert_eq!(g.arc_count(), 0);
    }

    #[test]
    fn slab_reuses_ids() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.remove_node(a);
        let c = g.add_node();
        assert_eq!(a, c, "freed slot is reused");
        assert_ne!(b, c);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn remove_arc_works() {
        let mut g = DiGraph::new();
        let v = nodes(&mut g, 2);
        g.add_arc(v[0], v[1]);
        assert!(g.remove_arc(v[0], v[1]));
        assert!(!g.remove_arc(v[0], v[1]));
        assert_eq!(g.arc_count(), 0);
        assert!(g.preds(v[1]).is_empty());
    }

    #[test]
    fn nodes_and_arcs_iterate_deterministically() {
        let mut g = DiGraph::new();
        let v = nodes(&mut g, 3);
        g.add_arc(v[2], v[0]);
        g.add_arc(v[0], v[1]);
        let ns: Vec<_> = g.nodes().collect();
        assert_eq!(ns, v);
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(v[0], v[1]), (v[2], v[0])]);
    }

    #[test]
    #[should_panic(expected = "use of removed node")]
    fn using_removed_node_panics() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        g.remove_node(a);
        let _ = g.succs(a);
    }
}
