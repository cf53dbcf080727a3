//! Dense bit-sets over the states of a transition system.

use crate::StateId;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

const WORD_BITS: usize = 64;

/// A dense bit-set over state indices `0..capacity`.
///
/// All region-theoretic computations (crossing relations, exit borders,
/// brick unions, …) manipulate sets of states; representing them as packed
/// bit vectors keeps these operations word-parallel.
///
/// # Example
///
/// ```
/// use ts::{StateSet, StateId};
///
/// let mut a = StateSet::new(10);
/// a.insert(StateId(1));
/// a.insert(StateId(4));
/// let mut b = StateSet::new(10);
/// b.insert(StateId(4));
/// b.insert(StateId(9));
///
/// let inter = a.intersection(&b);
/// assert_eq!(inter.len(), 1);
/// assert!(inter.contains(StateId(4)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StateSet {
    words: Vec<u64>,
    capacity: usize,
}

impl StateSet {
    /// Creates an empty set able to hold states `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        StateSet { words: vec![0; capacity.div_ceil(WORD_BITS)], capacity }
    }

    /// Creates a set containing every state in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut set = StateSet::new(capacity);
        for word in set.words.iter_mut() {
            *word = u64::MAX;
        }
        set.trim();
        set
    }

    /// Creates a set from an iterator of states.
    ///
    /// # Panics
    ///
    /// Panics if any state index is `>= capacity`.
    pub fn from_states<I: IntoIterator<Item = StateId>>(capacity: usize, states: I) -> Self {
        let mut set = StateSet::new(capacity);
        for s in states {
            set.insert(s);
        }
        set
    }

    /// Number of states this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of states currently in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no states.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if `state` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn contains(&self, state: StateId) -> bool {
        let i = state.index();
        assert!(i < self.capacity, "state {state} out of range {}", self.capacity);
        self.words[i / WORD_BITS] & (1 << (i % WORD_BITS)) != 0
    }

    /// Inserts `state`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn insert(&mut self, state: StateId) -> bool {
        let i = state.index();
        assert!(i < self.capacity, "state {state} out of range {}", self.capacity);
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1 << (i % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `state`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn remove(&mut self, state: StateId) -> bool {
        let i = state.index();
        assert!(i < self.capacity, "state {state} out of range {}", self.capacity);
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1 << (i % WORD_BITS);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Removes all states from the set.
    pub fn clear(&mut self) {
        for word in self.words.iter_mut() {
            *word = 0;
        }
    }

    /// Set union, out of place.
    pub fn union(&self, other: &StateSet) -> StateSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: &StateSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Set intersection, out of place.
    pub fn intersection(&self, other: &StateSet) -> StateSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Set intersection, in place.
    pub fn intersect_with(&mut self, other: &StateSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Set difference `self \ other`, out of place.
    pub fn difference(&self, other: &StateSet) -> StateSet {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// Set difference `self \ other`, in place.
    pub fn subtract(&mut self, other: &StateSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Complement with respect to the full state universe.
    pub fn complement(&self) -> StateSet {
        let mut out = StateSet::full(self.capacity);
        out.subtract(self);
        out
    }

    /// Returns `true` if `self` and `other` have no common state.
    pub fn is_disjoint(&self, other: &StateSet) -> bool {
        self.check_compat(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if `self` and `other` share at least one state.
    ///
    /// Word-parallel; short-circuits on the first overlapping word, so it is
    /// the preferred form of `!a.is_disjoint(&b)` on hot paths.
    #[inline]
    pub fn intersects(&self, other: &StateSet) -> bool {
        self.check_compat(other);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// `|self ∩ other|` without materialising the intersection.
    pub fn intersection_count(&self, other: &StateSet) -> usize {
        self.check_compat(other);
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// `|self \ other|` without materialising the difference.
    pub fn difference_count(&self, other: &StateSet) -> usize {
        self.check_compat(other);
        self.words.iter().zip(&other.words).map(|(a, b)| (a & !b).count_ones() as usize).sum()
    }

    /// Complements the set in place with respect to the full state universe.
    pub fn complement_in_place(&mut self) {
        for word in self.words.iter_mut() {
            *word = !*word;
        }
        self.trim();
    }

    /// A 64-bit content fingerprint (FxHash-style word fold).
    ///
    /// Two equal sets always have equal fingerprints; the converse holds up
    /// to hash collisions, so deduplication layers use the fingerprint as a
    /// bucket key and confirm with `==`.  Folding the words directly is much
    /// cheaper than feeding them through a streaming `Hasher`.
    ///
    /// The canonical definition of this fold is `bdd::hash::fx_combine`;
    /// it is restated here because `ts` sits below `bdd` in the dependency
    /// order — keep the two in sync.
    pub fn fingerprint(&self) -> u64 {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut hash = self.capacity as u64;
        for &word in &self.words {
            hash = (hash.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
        hash
    }

    /// Returns `true` if every state of `self` is in `other`.
    pub fn is_subset(&self, other: &StateSet) -> bool {
        self.check_compat(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if `self` is a strict subset of `other`.
    pub fn is_strict_subset(&self, other: &StateSet) -> bool {
        self.is_subset(other) && self != other
    }

    /// Iterates over the states in the set in increasing index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, word_index: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Returns an arbitrary state of the set (the smallest index), if any.
    pub fn first(&self) -> Option<StateId> {
        self.iter().next()
    }

    fn check_compat(&self, other: &StateSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "state sets over different universes ({} vs {})",
            self.capacity, other.capacity
        );
    }

    fn trim(&mut self) {
        let rem = self.capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Hasher that passes a single `u64` through unchanged — for maps whose
/// keys are already well-mixed hashes (like [`StateSet::fingerprint`]).
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PassThroughHasher only accepts u64 keys");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Deduplicates state sets by their precomputed [`StateSet::fingerprint`].
///
/// Region and search layers generate thousands of candidate sets, most of
/// them repeats.  The bit vector is folded into a 64-bit key once per
/// candidate instead of being re-hashed on every table probe, and equality
/// inside a bucket confirms, so a fingerprint collision costs one
/// comparison and can never drop a genuinely new set.  Candidates are only
/// cloned once known to be new.
#[derive(Default)]
pub struct SetDedup {
    buckets: HashMap<u64, Vec<StateSet>, BuildHasherDefault<PassThroughHasher>>,
}

impl SetDedup {
    /// Creates an empty deduplicator.
    pub fn new() -> Self {
        SetDedup::default()
    }

    /// Records `set`; returns `true` when it was not seen before.
    pub fn insert(&mut self, set: &StateSet) -> bool {
        let bucket = self.buckets.entry(set.fingerprint()).or_default();
        if bucket.iter().any(|seen| seen == set) {
            return false;
        }
        bucket.push(set.clone());
        true
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<StateId> for StateSet {
    /// Builds a set whose capacity is one larger than the maximum index seen.
    fn from_iter<I: IntoIterator<Item = StateId>>(iter: I) -> Self {
        let states: Vec<StateId> = iter.into_iter().collect();
        let capacity = states.iter().map(|s| s.index() + 1).max().unwrap_or(0);
        StateSet::from_states(capacity, states)
    }
}

impl Extend<StateId> for StateSet {
    fn extend<I: IntoIterator<Item = StateId>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

/// Iterator over the members of a [`StateSet`].
pub struct Iter<'a> {
    set: &'a StateSet,
    word_index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = StateId;

    fn next(&mut self) -> Option<StateId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(StateId((self.word_index * WORD_BITS + bit) as u32));
            }
            self.word_index += 1;
            if self.word_index >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_index];
        }
    }
}

impl<'a> IntoIterator for &'a StateSet {
    type Item = StateId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(capacity: usize, members: &[u32]) -> StateSet {
        StateSet::from_states(capacity, members.iter().map(|&i| StateId(i)))
    }

    #[test]
    fn empty_and_full() {
        let e = StateSet::new(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = StateSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(!f.is_empty());
        assert!(e.is_subset(&f));
        assert!(!f.is_subset(&e));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = StateSet::new(130);
        assert!(s.insert(StateId(0)));
        assert!(s.insert(StateId(64)));
        assert!(s.insert(StateId(129)));
        assert!(!s.insert(StateId(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(StateId(129)));
        assert!(s.remove(StateId(64)));
        assert!(!s.remove(StateId(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let s = StateSet::new(4);
        s.contains(StateId(4));
    }

    #[test]
    fn boolean_algebra() {
        let a = set(200, &[1, 5, 100, 150]);
        let b = set(200, &[5, 150, 199]);
        assert_eq!(a.union(&b).len(), 5);
        assert_eq!(a.intersection(&b).len(), 2);
        assert_eq!(a.difference(&b).len(), 2);
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersection(&b).is_subset(&b));
        assert!(a.is_disjoint(&set(200, &[0, 2, 3])));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn complement_involution() {
        let a = set(67, &[0, 1, 2, 33, 66]);
        assert_eq!(a.complement().complement(), a);
        assert_eq!(a.complement().len(), 67 - a.len());
        assert!(a.is_disjoint(&a.complement()));
    }

    #[test]
    fn strict_subset() {
        let a = set(10, &[1, 2]);
        let b = set(10, &[1, 2, 3]);
        assert!(a.is_strict_subset(&b));
        assert!(!b.is_strict_subset(&a));
        assert!(!a.is_strict_subset(&a));
    }

    #[test]
    fn iteration_order() {
        let a = set(300, &[299, 0, 64, 65, 128]);
        let collected: Vec<u32> = a.iter().map(|s| s.0).collect();
        assert_eq!(collected, vec![0, 64, 65, 128, 299]);
        assert_eq!(a.first(), Some(StateId(0)));
    }

    #[test]
    fn from_iterator_sizes_capacity() {
        let s: StateSet = [StateId(3), StateId(7)].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert!(s.contains(StateId(7)));
    }

    #[test]
    fn display_formats_members() {
        let s = set(10, &[1, 3]);
        assert_eq!(format!("{s}"), "{s1, s3}");
    }

    #[test]
    fn capacity_zero_is_a_valid_empty_universe() {
        let e = StateSet::new(0);
        let f = StateSet::full(0);
        assert_eq!(e, f, "the empty universe has exactly one set");
        assert!(e.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(e.union(&f), e);
        assert_eq!(e.complement(), e);
        assert!(e.is_subset(&f));
        assert!(!e.intersects(&f));
        assert_eq!(e.iter().count(), 0);
        assert_eq!(e.first(), None);
        assert_eq!(e.intersection_count(&f), 0);
    }

    #[test]
    fn full_trims_tail_bits_on_unaligned_capacities() {
        // One bit shy of a word boundary, one bit past it, and mid-word.
        for capacity in [1, 63, 64, 65, 127, 128, 129, 190] {
            let f = StateSet::full(capacity);
            assert_eq!(f.len(), capacity, "capacity {capacity}");
            // The tail bits beyond `capacity` must be zero, otherwise word
            // counts and equality would silently diverge.
            assert!(f.iter().all(|s| s.index() < capacity), "capacity {capacity}");
            assert_eq!(f.iter().count(), capacity, "capacity {capacity}");
            // Complement of full is empty — only true with a trimmed tail.
            assert!(f.complement().is_empty(), "capacity {capacity}");
            assert_eq!(f, f.complement().complement(), "capacity {capacity}");
        }
    }

    #[test]
    fn complement_in_place_matches_out_of_place() {
        for capacity in [0, 1, 65, 100] {
            let members: Vec<u32> = (0..capacity as u32).step_by(3).collect();
            let a = set(capacity, &members);
            let mut b = a.clone();
            b.complement_in_place();
            assert_eq!(b, a.complement(), "capacity {capacity}");
            b.complement_in_place();
            assert_eq!(b, a, "involution at capacity {capacity}");
        }
    }

    #[test]
    fn counting_ops_agree_with_materialised_sets() {
        let a = set(130, &[0, 63, 64, 65, 128, 129]);
        let b = set(130, &[63, 65, 70, 129]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), a.intersection(&b).len());
        assert_eq!(a.difference_count(&b), a.difference(&b).len());
        assert_eq!(b.difference_count(&a), b.difference(&a).len());
        let disjoint = set(130, &[1, 2]);
        assert!(!a.intersects(&disjoint));
        assert_eq!(a.difference_count(&disjoint), a.len());
    }

    #[test]
    fn fingerprints_track_content_not_identity() {
        let a = set(100, &[5, 50, 99]);
        let b = set(100, &[5, 50, 99]);
        let c = set(100, &[5, 50]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal sets, equal fingerprints");
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Same bit pattern over a different universe is a different set.
        let d = set(101, &[5, 50, 99]);
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = a.clone();
        e.remove(StateId(99));
        assert_eq!(e.fingerprint(), c.fingerprint());
    }
}
