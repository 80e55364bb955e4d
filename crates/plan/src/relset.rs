//! [`RelSet`]: the flat bitset every relation set in the planner uses.
//!
//! A set of [`RelId`]s is a run of `u64` words, bit `i % 64` of word
//! `i / 64` standing for relation `i`. Sets sized for a graph
//! ([`RelSet::new`]) get one word per 64 relations, so there is no fixed
//! relation limit; sets built without a graph grow as relations are
//! inserted. Two sets are equal when they hold the same relations, whatever
//! their widths.
//!
//! Iteration is in ascending [`RelId`] order, the order the estimator
//! multiplies base cardinalities in (see [`crate::estimator`]).
//!
//! `FlatSets` stores one set per plan node in a single `Vec<u64>`: the cost
//! model and push-down derive a plan's per-node sets into it once, bottom-up,
//! instead of rebuilding a set at every node.

use crate::graph::RelId;
use std::fmt;

/// Bits per word.
const WORD_BITS: usize = 64;

/// Words needed to hold relations `0..num_relations`.
pub(crate) fn words_for(num_relations: usize) -> usize {
    num_relations.div_ceil(WORD_BITS)
}

/// Word index and bit mask of one relation.
fn locate(rel: RelId) -> (usize, u64) {
    (rel.0 / WORD_BITS, 1u64 << (rel.0 % WORD_BITS))
}

/// True if `rel`'s bit is set in `words` (bits past the end are clear).
pub(crate) fn contains_in(words: &[u64], rel: RelId) -> bool {
    let (word, mask) = locate(rel);
    words.get(word).is_some_and(|w| w & mask != 0)
}

/// The relations of `words`, in ascending order.
pub(crate) fn iter_in(words: &[u64]) -> impl Iterator<Item = RelId> + '_ {
    words.iter().enumerate().flat_map(|(index, &word)| {
        let base = index * WORD_BITS;
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            // CAST-OK: trailing_zeros of a non-zero u64 is below 64.
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(RelId(base + bit))
        })
    })
}

/// `words` without its trailing zero words: the canonical form equality
/// uses.
fn trimmed(words: &[u64]) -> &[u64] {
    let len = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    &words[..len]
}

/// True if the two word runs hold the same relations.
pub(crate) fn same_set(a: &[u64], b: &[u64]) -> bool {
    trimmed(a) == trimmed(b)
}

/// A set of relations of one join graph, stored as a bitset.
#[derive(Clone, Default)]
pub struct RelSet {
    words: Vec<u64>,
}

impl RelSet {
    /// The empty set, sized for a graph of `num_relations` relations.
    pub fn new(num_relations: usize) -> Self {
        RelSet {
            words: vec![0; words_for(num_relations)],
        }
    }

    /// The set `{rel}`, sized for a graph of `num_relations` relations.
    pub fn singleton(num_relations: usize, rel: RelId) -> Self {
        let mut set = RelSet::new(num_relations);
        set.insert(rel);
        set
    }

    /// Every relation `0..num_relations`.
    pub fn full(num_relations: usize) -> Self {
        let mut set = RelSet::new(num_relations);
        for rel in 0..num_relations {
            set.insert(RelId(rel));
        }
        set
    }

    /// The set whose words are `words` (bit `i % 64` of word `i / 64` is
    /// relation `i`).
    pub fn from_words(words: Vec<u64>) -> Self {
        RelSet { words }
    }

    /// The backing words.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Adds a relation, growing the set if it is past the current width.
    /// Returns true if it was not present.
    pub fn insert(&mut self, rel: RelId) -> bool {
        let (word, mask) = locate(rel);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Removes a relation. Returns true if it was present.
    pub fn remove(&mut self, rel: RelId) -> bool {
        let (word, mask) = locate(rel);
        match self.words.get_mut(word) {
            Some(w) if *w & mask != 0 => {
                *w &= !mask;
                true
            }
            _ => false,
        }
    }

    /// True if the set holds `rel`.
    pub fn contains(&self, rel: RelId) -> bool {
        contains_in(&self.words, rel)
    }

    /// Number of relations in the set.
    pub fn len(&self) -> usize {
        // CAST-OK: a popcount (at most 64) widens losslessly to usize.
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set holds no relation.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest relation in the set.
    pub(crate) fn first(&self) -> Option<RelId> {
        self.iter().next()
    }

    /// The relations, in ascending [`RelId`] order.
    pub fn iter(&self) -> impl Iterator<Item = RelId> + '_ {
        iter_in(&self.words)
    }

    /// Adds every relation of `other` (`self ∪= other`).
    pub fn union_with(&mut self, other: &RelSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &RelSet) -> RelSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// True if every relation of `self` is in `other`.
    pub fn is_subset(&self, other: &RelSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// True if the two sets share a relation.
    pub fn intersects(&self, other: &RelSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }
}

impl PartialEq for RelSet {
    fn eq(&self, other: &Self) -> bool {
        same_set(&self.words, &other.words)
    }
}

impl Eq for RelSet {}

impl FromIterator<RelId> for RelSet {
    fn from_iter<I: IntoIterator<Item = RelId>>(iter: I) -> Self {
        let mut set = RelSet::default();
        for rel in iter {
            set.insert(rel);
        }
        set
    }
}

impl Extend<RelId> for RelSet {
    fn extend<I: IntoIterator<Item = RelId>>(&mut self, iter: I) {
        for rel in iter {
            self.insert(rel);
        }
    }
}

impl fmt::Debug for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One relation set per plan node, stored back to back in one `Vec<u64>`:
/// node `i` owns words `i * stride .. (i + 1) * stride`.
#[derive(Debug, Clone)]
pub(crate) struct FlatSets {
    stride: usize,
    words: Vec<u64>,
}

impl FlatSets {
    /// `count` empty sets, each sized for `num_relations` relations.
    pub(crate) fn new(count: usize, num_relations: usize) -> Self {
        let stride = words_for(num_relations);
        FlatSets {
            stride,
            words: vec![0; count * stride],
        }
    }

    /// Appends one empty set.
    pub(crate) fn push_empty(&mut self) {
        self.words.resize(self.words.len() + self.stride, 0);
    }

    /// The words of set `i`.
    pub(crate) fn get(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Adds `rel` to set `i`.
    pub(crate) fn insert(&mut self, i: usize, rel: RelId) {
        let (word, mask) = locate(rel);
        self.words[i * self.stride + word] |= mask;
    }

    /// `set[dst] ∪= set[src]`.
    pub(crate) fn union_into(&mut self, dst: usize, src: usize) {
        for k in 0..self.stride {
            self.words[dst * self.stride + k] |= self.words[src * self.stride + k];
        }
    }

    /// Set `i` as a [`RelSet`].
    pub(crate) fn to_set(&self, i: usize) -> RelSet {
        RelSet::from_words(self.get(i).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_across_words() {
        let mut set = RelSet::new(130);
        assert_eq!(set.words().len(), 3);
        for r in [0, 63, 64, 129] {
            assert!(set.insert(RelId(r)));
            assert!(!set.insert(RelId(r)));
        }
        assert_eq!(set.len(), 4);
        assert!(set.contains(RelId(64)));
        assert!(!set.contains(RelId(65)));
        assert!(!set.contains(RelId(500)));
        assert!(set.remove(RelId(64)));
        assert!(!set.remove(RelId(64)));
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![RelId(0), RelId(63), RelId(129)]
        );
    }

    #[test]
    fn equality_ignores_width() {
        let sized = RelSet::singleton(200, RelId(3));
        let grown: RelSet = [RelId(3)].into_iter().collect();
        assert_eq!(sized.words().len(), 4);
        assert_eq!(grown.words().len(), 1);
        assert_eq!(sized, grown);
        assert_eq!(RelSet::new(100), RelSet::default());
        assert_ne!(sized, RelSet::singleton(200, RelId(4)));
    }

    #[test]
    fn set_algebra() {
        let a: RelSet = [1, 2, 70].into_iter().map(RelId).collect();
        let b: RelSet = [2, 3].into_iter().map(RelId).collect();
        assert_eq!(a.union(&b), [1, 2, 3, 70].into_iter().map(RelId).collect());
        assert!(a.intersects(&b));
        assert!(!a.intersects(&[RelId(3)].into_iter().collect()));
        assert!(b.is_subset(&a.union(&b)));
        assert!(!a.is_subset(&b));
        assert!(RelSet::default().is_subset(&b));
        assert!(RelSet::default().is_empty());
        assert_eq!(a.first(), Some(RelId(1)));
        assert_eq!(RelSet::full(66).len(), 66);
        assert_eq!(format!("{b:?}"), "{RelId(2), RelId(3)}");
    }

    #[test]
    fn flat_sets_union_per_node() {
        let mut sets = FlatSets::new(2, 100);
        sets.push_empty();
        sets.insert(0, RelId(1));
        sets.insert(1, RelId(99));
        sets.union_into(2, 0);
        sets.union_into(2, 1);
        assert_eq!(
            sets.to_set(2),
            [RelId(1), RelId(99)].into_iter().collect::<RelSet>()
        );
        assert!(contains_in(sets.get(2), RelId(99)));
        assert!(!contains_in(sets.get(0), RelId(99)));
    }
}
