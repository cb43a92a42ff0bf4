//! A vector that keeps up to `N` items inline and spills to the heap
//! above that.
//!
//! The conflict graph's per-node and per-entity lists are short: a node
//! has about two predecessors and four or five successors in steady
//! state, and an entity a handful of accessors. Keeping such a list in
//! the record that owns it, instead of behind a `Vec` pointer, means one
//! operation touches the record's cache lines and nothing else.
//!
//! Items are `Copy`, which keeps the type free of `unsafe`: unused
//! inline cells repeat an element that was stored there, and an empty
//! list is a `Vec` that never allocated. A spilled list moves back
//! inline once it shrinks to half the inline capacity, so a list that
//! was long once does not stay on the heap for good.
//!
//! (This file is also compiled into `deltx-storage` through a `#[path]`
//! module: the store keeps each entity's versions in one.)

use std::fmt;

/// A list of `Copy` items, stored inline up to `N` and on the heap
/// above that. Dereferences to a slice.
#[derive(Clone)]
pub struct SmallVec<T: Copy, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T: Copy, const N: usize> {
    /// `items[..len]` are the elements; the cells past `len` repeat an
    /// element and are never read.
    Inline { len: u32, items: [T; N] },
    /// Spilled, or empty (an empty `Vec` holds no allocation).
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> SmallVec<T, N> {
    /// An empty list; allocates nothing.
    pub const fn new() -> Self {
        SmallVec(Repr::Heap(Vec::new()))
    }

    /// The items as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// True if the items live on the heap.
    pub fn spilled(&self) -> bool {
        matches!(&self.0, Repr::Heap(v) if v.capacity() > 0)
    }

    /// Inserts `x` at `pos`, shifting later items right.
    ///
    /// # Panics
    /// Panics if `pos > len`.
    pub fn insert(&mut self, pos: usize, x: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < N => {
                let n = *len as usize;
                assert!(pos <= n, "insert position out of bounds");
                items.copy_within(pos..n, pos + 1);
                items[pos] = x;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut v = Vec::with_capacity(2 * N);
                v.extend_from_slice(items);
                v.insert(pos, x);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) if v.capacity() == 0 && N > 0 => {
                assert!(pos == 0, "insert position out of bounds");
                self.0 = Repr::Inline {
                    len: 1,
                    items: [x; N],
                };
            }
            Repr::Heap(v) => v.insert(pos, x),
        }
    }

    /// Appends `x`.
    pub fn push(&mut self, x: T) {
        self.insert(self.len(), x);
    }

    /// Removes and returns the item at `pos`, shifting later items left.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    pub fn remove(&mut self, pos: usize) -> T {
        let x = match &mut self.0 {
            Repr::Inline { len, items } => {
                let n = *len as usize;
                assert!(pos < n, "remove position out of bounds");
                let x = items[pos];
                items.copy_within(pos + 1..n, pos);
                *len -= 1;
                x
            }
            Repr::Heap(v) => v.remove(pos),
        };
        self.unspill_if_short();
        x
    }

    /// Keeps only the items for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(&items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u32;
            }
            Repr::Heap(v) => v.retain(keep),
        }
        self.unspill_if_short();
    }

    /// Moves a spilled list that has shrunk to half the inline capacity
    /// back inline (an emptied one to the allocation-free empty state).
    fn unspill_if_short(&mut self) {
        if let Repr::Heap(v) = &self.0 {
            if v.capacity() > 0 && v.len() <= N / 2 {
                self.0 = match v.first() {
                    None => Repr::Heap(Vec::new()),
                    Some(&fill) => {
                        let mut items = [fill; N];
                        items[..v.len()].copy_from_slice(v);
                        Repr::Inline {
                            len: v.len() as u32,
                            items,
                        }
                    }
                };
            }
        }
    }
}

impl<T: Copy + Ord, const N: usize> SmallVec<T, N> {
    /// Inserts `x` into a list sorted ascending, keeping it sorted.
    /// Returns `false` if `x` was already present.
    pub fn insert_sorted(&mut self, x: T) -> bool {
        match self.binary_search(&x) {
            Ok(_) => false,
            Err(pos) => {
                self.insert(pos, x);
                true
            }
        }
    }

    /// Removes `x` from a list sorted ascending. Returns `false` if `x`
    /// was absent.
    pub fn remove_sorted(&mut self, x: &T) -> bool {
        match self.binary_search(x) {
            Ok(pos) => {
                self.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

impl<T: Copy, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for SmallVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> std::ops::DerefMut for SmallVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity_then_spills() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        assert!(!v.spilled() && v.is_empty());
        for x in [3, 1, 4, 2] {
            v.insert_sorted(x);
        }
        assert!(!v.spilled(), "four items fit inline");
        assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        assert!(!v.insert_sorted(3), "duplicates are refused");
        v.insert_sorted(0);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn shrinking_to_half_moves_back_inline() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for x in 0..6 {
            v.push(x);
        }
        assert!(v.spilled());
        assert!(v.remove_sorted(&5));
        assert!(v.remove_sorted(&4));
        assert!(v.remove_sorted(&3));
        assert!(v.spilled(), "three of four: still on the heap");
        assert_eq!(v.remove(0), 0);
        assert!(!v.spilled(), "two of four: back inline");
        assert_eq!(v.as_slice(), &[1, 2]);
        v.retain(|_| false);
        assert!(v.is_empty() && !v.spilled());
        v.push(7);
        assert_eq!(v.as_slice(), &[7]);
    }

    #[test]
    fn retain_and_remove_keep_order_inline_and_spilled() {
        for n in [3u32, 9] {
            let mut v: SmallVec<u32, 4> = SmallVec::new();
            (0..n).for_each(|x| v.push(x));
            v.retain(|&x| x % 2 == 0);
            let want: Vec<u32> = (0..n).filter(|x| x % 2 == 0).collect();
            assert_eq!(v.as_slice(), want.as_slice());
            v.insert(1, 99);
            assert_eq!(v[1], 99);
            assert_eq!(v.remove(1), 99);
            assert_eq!(v.as_slice(), want.as_slice());
        }
    }
}
