//! Batch-parallel sorted list maintenance (paper Lemma A.2).
//!
//! The paper realizes this with parallel red-black trees \[PP01\]; we wrap
//! a `BTreeSet` and charge the lemma's PRAM costs (initialize:
//! `O(k log k)` work / `O(log k)` depth; batch search/insert/delete:
//! `O(|I|)` work / `O(log|I| + log|T|)` depth) per DESIGN.md's simulation
//! convention — batch operations on balanced trees parallelize across
//! the batch.

use pmcf_pram::{log2_ceil, Cost, Tracker};
use std::collections::BTreeSet;

/// A sorted set of elements with batch operations.
///
/// ```
/// use pmcf_ds::sorted_list::SortedList;
/// use pmcf_pram::Tracker;
/// let mut t = Tracker::new();
/// let mut l = SortedList::initialize(&mut t, vec![3, 1, 2]);
/// l.insert(&mut t, [0, 9]);
/// l.delete(&mut t, &[2]);
/// assert_eq!(l.retrieve_all(&mut t), vec![0, 1, 3, 9]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SortedList<T: Ord + Clone> {
    set: BTreeSet<T>,
}

impl<T: Ord + Clone> SortedList<T> {
    /// Empty list (O(1)).
    pub fn new() -> Self {
        SortedList {
            set: BTreeSet::new(),
        }
    }

    /// Initialize from a batch (Lemma A.2 `Initialize`).
    pub fn initialize(t: &mut Tracker, items: Vec<T>) -> Self {
        let k = items.len() as u64;
        t.charge(Cost::sort(k));
        SortedList {
            set: items.into_iter().collect(),
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    fn batch_cost(&self, batch: u64) -> Cost {
        Cost::new(
            batch.max(1),
            log2_ceil(batch.max(2)) + log2_ceil(self.set.len().max(2) as u64),
        )
    }

    /// Batch membership query (Lemma A.2 `Search`).
    pub fn search(&self, t: &mut Tracker, items: &[T]) -> Vec<bool> {
        t.charge(self.batch_cost(items.len() as u64));
        items.iter().map(|x| self.set.contains(x)).collect()
    }

    /// Batch insert (Lemma A.2 `Insert`).
    pub fn insert(&mut self, t: &mut Tracker, items: impl IntoIterator<Item = T>) {
        let items: Vec<T> = items.into_iter().collect();
        t.charge(self.batch_cost(items.len() as u64));
        for x in items {
            self.set.insert(x);
        }
    }

    /// Batch delete (Lemma A.2 `Delete`).
    pub fn delete(&mut self, t: &mut Tracker, items: &[T]) {
        t.charge(self.batch_cost(items.len() as u64));
        for x in items {
            self.set.remove(x);
        }
    }

    /// All elements in sorted order (Lemma A.2 `RetrieveAll`).
    pub fn retrieve_all(&self, t: &mut Tracker) -> Vec<T> {
        t.charge(Cost::new(
            self.set.len().max(1) as u64,
            log2_ceil(self.set.len().max(2) as u64),
        ));
        self.set.iter().cloned().collect()
    }

    /// Smallest element, if any (no charge — O(log) peek).
    pub fn min(&self) -> Option<&T> {
        self.set.first()
    }

    /// Largest element, if any.
    pub fn max(&self) -> Option<&T> {
        self.set.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initialize_sorts() {
        let mut t = Tracker::new();
        let l = SortedList::initialize(&mut t, vec![5, 1, 4, 1, 3]);
        assert_eq!(l.retrieve_all(&mut t), vec![1, 3, 4, 5]);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn batch_operations_roundtrip() {
        let mut t = Tracker::new();
        let mut l = SortedList::new();
        l.insert(&mut t, [10, 20, 30]);
        assert_eq!(l.search(&mut t, &[10, 15, 30]), vec![true, false, true]);
        l.delete(&mut t, &[20, 99]);
        assert_eq!(l.retrieve_all(&mut t), vec![10, 30]);
        assert_eq!(l.min(), Some(&10));
        assert_eq!(l.max(), Some(&30));
    }

    #[test]
    fn empty_list_behaviour() {
        let mut t = Tracker::new();
        let l: SortedList<i32> = SortedList::new();
        assert!(l.is_empty());
        assert_eq!(l.search(&mut t, &[1]), vec![false]);
        assert_eq!(l.min(), None);
    }

    #[test]
    fn costs_are_charged() {
        let mut t = Tracker::new();
        let mut l = SortedList::new();
        l.insert(&mut t, 0..1000);
        let w0 = t.work();
        l.search(&mut t, &(0..10).collect::<Vec<_>>());
        assert!(t.work() > w0);
        assert!(t.depth() < t.work(), "batched ops are shallow");
    }
}
