//! Identifier newtypes.
//!
//! Transactions and entities are identified by small integers throughout
//! the workspace; names (for the DSL and figure rendering) live in a
//! side table ([`crate::schedule::EntityTable`]).

use serde::{Deserialize, Serialize};

/// Identifier of a transaction (`T1`, `T2`, … in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u32);

impl TxnId {
    /// Raw index, handy for dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a database entity (`x`, `y`, `z1`, … in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntityId(pub u32);

impl EntityId {
    /// Raw index, handy for dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Hasher for maps keyed by the dense integer ids above (and the
/// graph's `NodeId`, any `u32`/`usize` newtype): one multiply instead
/// of SipHash's rounds. That gives up SipHash's defence against keys
/// crafted to collide: transaction and node ids are handed out by this
/// program, and entity ids by the application embedding it — do not
/// key these maps by ids an untrusted peer chooses. Iteration order
/// becomes a function of the keys, and nothing may depend on it.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, n: u64) {
        // Odd constant near 2^64 / φ: consecutive ids land far apart.
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.mix(b as u64));
    }
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
    fn finish(&self) -> u64 {
        // A product's strong bits are its high ones; `HashMap` picks
        // the bucket from the low ones, and a shard's entity ids all
        // share theirs (`x % shards`).
        self.0.rotate_left(26)
    }
}

/// [`IdHasher`] as a `BuildHasher`.
pub type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;
/// A `HashMap` keyed by a dense integer id.
pub type IdMap<K, V> = std::collections::HashMap<K, V, IdBuildHasher>;
/// A `HashSet` of dense integer ids.
pub type IdSet<K> = std::collections::HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_hasher_spreads_strided_ids_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        // One shard's entities: x ≡ 3 (mod 8). Both halves `HashMap`
        // uses — low bits (bucket) and top 7 (tag) — must still vary.
        let hashes: Vec<u64> = (0..256u32)
            .map(|i| IdBuildHasher::default().hash_one(EntityId(3 + 8 * i)))
            .collect();
        let distinct = |f: fn(u64) -> u64| {
            let mut v: Vec<u64> = hashes.iter().map(|&h| f(h)).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(
            distinct(|h| h & 0xFF) >= 128,
            "buckets: {}",
            distinct(|h| h & 0xFF)
        );
        assert!(
            distinct(|h| h >> 57) >= 64,
            "tags: {}",
            distinct(|h| h >> 57)
        );
        let mut m: IdMap<TxnId, u32> = IdMap::default();
        m.insert(TxnId(7), 1);
        assert_eq!(m.get(&TxnId(7)), Some(&1));
        assert_eq!(m.get(&TxnId(8)), None);
    }

    #[test]
    fn ordering_and_formatting() {
        assert!(TxnId(1) < TxnId(2));
        assert!(EntityId(0) < EntityId(7));
        assert_eq!(format!("{}", TxnId(3)), "T3");
        assert_eq!(format!("{:?}", EntityId(5)), "e5");
        assert_eq!(TxnId(9).index(), 9);
        assert_eq!(EntityId(4).index(), 4);
    }
}
