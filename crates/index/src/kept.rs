//! Bounds kept from frozen refinements.
//!
//! A frozen query refines its open candidates in private scratch and never
//! writes the refined states back. What it learned about each one — the top-K
//! staircase its refinement reached, with the `‖r‖₁` and parked deficit that
//! close it — is still a valid set of bounds on that node's proximity
//! vector as long as the graph does not change. The index keeps those bounds
//! beside its states, one slot per held node, so a later exact frozen query
//! can test a candidate against them before refining it again.
//!
//! Like the cached record digests ([`crate::digest`]) the store is never
//! persisted, digested or compared. It is tied to the graph its bounds were
//! computed on: [`crate::ReverseIndex::apply_update`] empties it, and a
//! clone, a one-shard copy or a load starts empty. Frozen queries share the
//! index through `&self` (a server's read lock), so the slots sit behind one
//! `Mutex`, which each query locks at most twice: once to recall, once to
//! keep.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The bounds a refinement reached for one node.
#[derive(Clone, Debug, PartialEq)]
pub struct KeptBounds {
    /// `p̂_u(1:K)`, zero-padded to exactly `K` values.
    pub staircase: Box<[f64]>,
    /// `‖r‖₁` at the end of the refinement.
    pub residue_norm: f64,
    /// `Σ_h s(h)·d_h` at the end of the refinement.
    pub parked_deficit: f64,
}

impl KeptBounds {
    /// [`crate::NodeState::residual_mass`] of these bounds.
    #[inline]
    pub fn residual_mass(&self, strict: bool) -> f64 {
        if strict {
            self.residue_norm + self.parked_deficit
        } else {
            self.residue_norm
        }
    }
}

/// One optional [`KeptBounds`] per held node, allocated on the first keep.
#[derive(Debug, Default)]
pub(crate) struct KeptStore(Mutex<Vec<Option<KeptBounds>>>);

impl KeptStore {
    /// Forgets every slot (the graph changed).
    pub(crate) fn clear(&mut self) {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

/// A clone starts empty: kept bounds are history, not part of the index.
impl Clone for KeptStore {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// The kept bounds of an index's held nodes, locked for one query's recall
/// or merge ([`crate::ReverseIndex::kept`]).
pub struct Kept<'a> {
    slots: MutexGuard<'a, Vec<Option<KeptBounds>>>,
    /// First node id of the held range.
    first: u32,
    /// Number of held nodes.
    held: usize,
}

impl<'a> Kept<'a> {
    /// Locks `store`. A poisoned lock is recovered: a slot is only ever
    /// replaced whole, so every slot it holds is a valid bound.
    pub(crate) fn new(store: &'a KeptStore, first: u32, held: usize) -> Self {
        Self { slots: store.0.lock().unwrap_or_else(PoisonError::into_inner), first, held }
    }

    /// The bounds kept for held node `u`, if any.
    #[inline]
    pub fn get(&self, u: u32) -> Option<&KeptBounds> {
        self.slots.get((u - self.first) as usize)?.as_ref()
    }

    /// Keeps `bounds` for held node `u` unless the slot already holds bounds
    /// at least as refined (an `‖r‖₁` no larger). The rule makes the store
    /// independent of the order of offers, so thread and shard counts do not
    /// change it.
    pub fn offer(&mut self, u: u32, bounds: KeptBounds) {
        if self.slots.is_empty() {
            self.slots.resize_with(self.held, || None);
        }
        let slot = &mut self.slots[(u - self.first) as usize];
        if slot.as_ref().is_none_or(|old| bounds.residue_norm < old.residue_norm) {
            *slot = Some(bounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(residue_norm: f64) -> KeptBounds {
        KeptBounds { staircase: vec![0.5, 0.25].into(), residue_norm, parked_deficit: 0.125 }
    }

    #[test]
    fn a_slot_keeps_the_most_refined_offer_in_any_order() {
        let store = KeptStore::default();
        for offers in [[0.3, 0.1, 0.2], [0.1, 0.3, 0.2], [0.2, 0.3, 0.1]] {
            let mut store = store.clone();
            let mut kept = Kept::new(&store, 10, 4);
            assert!(kept.get(12).is_none());
            for r in offers {
                kept.offer(12, bounds(r));
            }
            assert_eq!(kept.get(12), Some(&bounds(0.1)));
            assert!(kept.get(11).is_none() && kept.get(13).is_none());
            assert_eq!(kept.get(12).unwrap().residual_mass(true), 0.1 + 0.125);
            drop(kept);
            store.clear();
            assert!(Kept::new(&store, 10, 4).get(12).is_none());
        }
    }

    #[test]
    fn a_clone_starts_empty_and_a_poisoned_lock_keeps_its_slots() {
        let store = KeptStore::default();
        Kept::new(&store, 0, 2).offer(1, bounds(0.5));
        assert!(Kept::new(&store.clone(), 0, 2).get(1).is_none());
        let poisoned = std::panic::catch_unwind(|| {
            let _held = Kept::new(&store, 0, 2);
            panic!("poison the lock");
        });
        assert!(poisoned.is_err() && store.0.is_poisoned());
        assert_eq!(Kept::new(&store, 0, 2).get(1), Some(&bounds(0.5)));
    }
}
