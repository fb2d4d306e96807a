//! A sequence shared copy-on-write a chunk at a time.
//!
//! A [`Chunked`] holds its items in order as consecutive chunks of at most
//! `K` items, each behind an [`Arc`]. Cloning one copies the list of chunk
//! pointers and no item. Editing a clone copies the one chunk the edit lands
//! in (two when the chunk splits or merges with a neighbour), and every other
//! chunk stays pointer-equal with the original's. A long-lived, frequently
//! edited table can therefore be frozen once per version at `O(len / K + K)`
//! per edit instead of `O(len)`. A chunk nothing else holds is edited in
//! place, so a sequence edited many times between two clones copies each
//! chunk at most once.
//!
//! The items keep whatever order the caller gives them: a sorted container
//! finds its place with [`Chunked::partition_point`] and edits there.
//! Reads never copy: [`Chunked::chunks`] hands out the chunks as slices, so
//! a scan is two flat nested loops.
//!
//! Invariants: no chunk is empty, none holds more than `K` items, and when
//! there are two or more each holds at least `K / 4`, so the pointer list
//! stays `O(len / K)`.

use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

/// The most rules one chunk of a switch's rule list holds, in the
/// snapshot's flow tables and the HSA transfer functions alike: an edit of a
/// shared list copies at most two chunks' worth of rules.
pub const RULE_CHUNK: usize = 64;

/// An ordered sequence stored as shared chunks of at most `K` items.
#[derive(Clone)]
pub struct Chunked<T, const K: usize> {
    chunks: Vec<Arc<Vec<T>>>,
    /// `ends[c]` is the number of items in chunks `..=c`: the flat index
    /// one past chunk `c`'s last item.
    ends: Vec<usize>,
}

impl<T, const K: usize> Chunked<T, K> {
    /// The fewest items a chunk holds when it is not the only one.
    const MIN: usize = K / 4;

    /// An empty sequence.
    #[must_use]
    pub const fn new() -> Self {
        Chunked {
            chunks: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// True when the sequence holds no item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The items in order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_, T> {
        self.iter_from(0)
    }

    /// The items from flat index `start` on (none when `start >= len`).
    #[must_use]
    pub fn iter_from(&self, start: usize) -> Iter<'_, T> {
        let (chunk, offset) = self.locate(start);
        match self.chunks.get(chunk) {
            Some(first) => Iter {
                chunks: self.chunks[chunk + 1..].iter(),
                items: first[offset..].iter(),
            },
            None => Iter {
                chunks: [].iter(),
                items: [].iter(),
            },
        }
    }

    /// The chunks in order, each a non-empty slice.
    pub fn chunks(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.chunks.iter().map(|chunk| chunk.as_slice())
    }

    /// The item at flat index `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        let (chunk, offset) = self.locate(index);
        self.chunks.get(chunk).map(|chunk| &chunk[offset])
    }

    /// The flat index of the first item for which `pred` is false, the items
    /// being partitioned by it (all the `true`s first), as
    /// [`slice::partition_point`]: `O(log len)`.
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let chunk = self
            .chunks
            .partition_point(|chunk| pred(&chunk[chunk.len() - 1]));
        match self.chunks.get(chunk) {
            Some(items) => self.start_of(chunk) + items.partition_point(pred),
            None => self.len(),
        }
    }

    /// The chunks in order, each with whether `other` holds the very same
    /// chunk (by pointer) — then `other` holds each of its items too, which
    /// is how a diff of two versions skips what they share.
    pub fn chunks_shared_with<'a>(
        &'a self,
        other: &Chunked<T, K>,
    ) -> impl Iterator<Item = (&'a [T], bool)> + 'a {
        let mut held: Vec<*const Vec<T>> = other.chunks.iter().map(Arc::as_ptr).collect();
        held.sort_unstable();
        self.chunks.iter().map(move |chunk| {
            let shared = held.binary_search(&Arc::as_ptr(chunk)).is_ok();
            (chunk.as_slice(), shared)
        })
    }

    /// How many of this sequence's items sit in chunks `older` does not hold
    /// (by pointer): what editing a clone of `older` into `self` copied.
    #[must_use]
    pub fn unshared_with(&self, older: &Chunked<T, K>) -> usize {
        self.chunks_shared_with(older)
            .filter(|(_, shared)| !shared)
            .map(|(chunk, _)| chunk.len())
            .sum()
    }

    /// Flat index of chunk `chunk`'s first item (the length when `chunk` is
    /// past the last).
    fn start_of(&self, chunk: usize) -> usize {
        chunk
            .checked_sub(1)
            .map_or(0, |previous| self.ends[previous])
    }

    /// `(chunk, offset)` of flat index `index`; `(chunks, 0)` past the end.
    fn locate(&self, index: usize) -> (usize, usize) {
        let chunk = self.ends.partition_point(|end| *end <= index);
        if chunk == self.chunks.len() {
            return (chunk, 0);
        }
        (chunk, index - self.start_of(chunk))
    }

    /// Replaces the chunks in `range` with `items`, moved into chunks of at
    /// most `K` cut as evenly as they come: `⌈n / K⌉` chunks, each at least
    /// `K / 2` when there are two or more.
    fn splice(&mut self, range: Range<usize>, mut items: Vec<T>) {
        let start = self.start_of(range.start);
        let (old_end, new_end) = (self.start_of(range.end), start + items.len());
        let count = items.len().div_ceil(K);
        let mut ends = Vec::with_capacity(count);
        let mut end = start;
        for left in (1..=count).rev() {
            end += (new_end - end).div_ceil(left);
            ends.push(end);
        }
        // Cut from the back, so each chunk moves its items once.
        let mut chunks: Vec<Arc<Vec<T>>> = ends
            .iter()
            .rev()
            .skip(1)
            .chain([&start])
            .take(count)
            .map(|from| Arc::new(items.drain(from - start..).collect()))
            .collect();
        chunks.reverse();
        let after = range.start + count;
        self.chunks.splice(range.clone(), chunks);
        self.ends.splice(range, ends);
        for end in &mut self.ends[after..] {
            *end = *end - old_end + new_end;
        }
    }
}

impl<T: Clone, const K: usize> Chunked<T, K> {
    /// Inserts `item` at flat index `index`, shifting the items after it.
    /// Copies the chunk it lands in if something else holds it; a chunk that
    /// grows past `K` is cut in two.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, item: T) {
        assert!(index <= self.len(), "insert index {index} out of bounds");
        let Some(last) = self.chunks.len().checked_sub(1) else {
            self.splice(0..0, vec![item]);
            return;
        };
        // Past the end an item joins the last chunk.
        let (chunk, offset) = if index == self.len() {
            (last, self.chunks[last].len())
        } else {
            self.locate(index)
        };
        let items = self.chunk_mut(chunk);
        items.insert(offset, item);
        if items.len() > K {
            let items = std::mem::take(items);
            self.splice(chunk..chunk + 1, items);
        } else {
            for end in &mut self.ends[chunk..] {
                *end += 1;
            }
        }
    }

    /// Removes and returns the item at flat index `index`. Copies the chunk
    /// it sat in if something else holds it; a chunk that falls below `K / 4`
    /// merges with a neighbour.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        assert!(index < self.len(), "remove index {index} out of bounds");
        let (chunk, offset) = self.locate(index);
        let alone = self.chunks.len() == 1;
        let items = self.chunk_mut(chunk);
        let removed = items.remove(offset);
        if items.len() >= Self::MIN.max(1) || alone {
            if items.is_empty() {
                self.chunks.clear();
                self.ends.clear();
            } else {
                for end in &mut self.ends[chunk..] {
                    *end -= 1;
                }
            }
            return removed;
        }
        // Too small beside others: merge with the next chunk (the previous
        // one for the last), cutting the pair in two again if it overflows.
        let rest = std::mem::take(items);
        let (range, merged) = if chunk + 1 < self.chunks.len() {
            let mut merged = rest;
            merged.extend_from_slice(&self.chunks[chunk + 1]);
            (chunk..chunk + 2, merged)
        } else {
            let mut merged = self.chunks[chunk - 1].to_vec();
            merged.extend(rest);
            (chunk - 1..chunk + 1, merged)
        };
        self.splice(range, merged);
        removed
    }

    /// Replaces the item at flat index `index` and returns the old one.
    /// Copies its chunk if something else holds it.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn replace(&mut self, index: usize, item: T) -> T {
        assert!(index < self.len(), "replace index {index} out of bounds");
        let (chunk, offset) = self.locate(index);
        std::mem::replace(&mut self.chunk_mut(chunk)[offset], item)
    }

    /// Chunk `chunk`'s items, to edit: in place when nothing else holds the
    /// chunk, else in a copy (with room for one more) that replaces it here.
    fn chunk_mut(&mut self, chunk: usize) -> &mut Vec<T> {
        let held = &mut self.chunks[chunk];
        if Arc::get_mut(held).is_none() {
            let mut items = Vec::with_capacity(held.len() + 1);
            items.extend_from_slice(held);
            *held = Arc::new(items);
        }
        Arc::get_mut(held).expect("a chunk nothing else holds")
    }

    /// The items in order, in one vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<T> {
        let mut items = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            items.extend_from_slice(chunk);
        }
        items
    }
}

impl<T, const K: usize> FromIterator<T> for Chunked<T, K> {
    /// Moves each item once, into full chunks as it comes; a short last
    /// chunk then evens out with the one before it.
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut items = items.into_iter();
        let mut chunks: Vec<Vec<T>> = Vec::new();
        loop {
            let room = items.size_hint().1.map_or(K, |left| left.min(K));
            let mut chunk = Vec::with_capacity(room);
            chunk.extend(items.by_ref().take(K));
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        if let [.., full, short] = &mut chunks[..] {
            if short.len() < K / 2 {
                let tail = full.split_off((full.len() + short.len()).div_ceil(2));
                short.splice(0..0, tail);
            }
        }
        let mut chunked = Chunked::new();
        for chunk in chunks {
            chunked.ends.push(chunked.len() + chunk.len());
            chunked.chunks.push(Arc::new(chunk));
        }
        chunked
    }
}

impl<T, const K: usize> Default for Chunked<T, K> {
    fn default() -> Self {
        Chunked::new()
    }
}

impl<T: fmt::Debug, const K: usize> fmt::Debug for Chunked<T, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Two sequences are equal when they hold equal items in the same order,
/// however they are chunked.
impl<T: PartialEq, const K: usize> PartialEq for Chunked<T, K> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T, const K: usize> Index<usize> for Chunked<T, K> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        let len = self.len();
        self.get(index)
            .unwrap_or_else(|| panic!("index {index} out of bounds for length {len}"))
    }
}

impl<'a, T, const K: usize> IntoIterator for &'a Chunked<T, K> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`Chunked`]'s items, in order.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    chunks: std::slice::Iter<'a, Arc<Vec<T>>>,
    items: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.items.next() {
                return Some(item);
            }
            self.items = self.chunks.next()?.iter();
        }
    }

    /// Exact, so a collect allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.items.len() + self.chunks.clone().map(|chunk| chunk.len()).sum::<usize>();
        (left, Some(left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Small enough that a few dozen items span many chunks.
    type Small = Chunked<u32, 8>;

    /// The invariants the module documents, and `ends` agreeing with them.
    fn assert_well_formed<T, const K: usize>(seq: &Chunked<T, K>) {
        let sizes: Vec<usize> = seq.chunks().map(<[T]>::len).collect();
        assert!(sizes.iter().all(|n| (1..=K).contains(n)), "{sizes:?}");
        assert!(
            sizes.len() < 2 || sizes.iter().all(|n| *n >= K / 4),
            "{sizes:?}"
        );
        let ends: Vec<usize> = sizes
            .iter()
            .scan(0, |end, n| {
                *end += n;
                Some(*end)
            })
            .collect();
        assert_eq!(seq.ends, ends);
    }

    #[test]
    fn bulk_builds_fill_chunks_and_even_out_the_last() {
        for n in [0usize, 1, 7, 8, 9, 10, 17, 64, 65] {
            let seq: Small = (0..n as u32).collect();
            assert_well_formed(&seq);
            assert_eq!(seq.to_vec(), (0..n as u32).collect::<Vec<_>>(), "{n}");
            assert_eq!(seq.iter().count(), n);
        }
        let full: Small = (0..64).collect();
        assert!(full.chunks().all(|chunk| chunk.len() == 8));
    }

    #[test]
    fn an_edit_copies_only_the_chunk_it_lands_in() {
        let original: Small = (0..64).collect();
        let mut edited = original.clone();
        assert_eq!(edited.unshared_with(&original), 0, "a clone copies nothing");
        edited.replace(20, 99);
        assert_eq!(edited.unshared_with(&original), 8);
        edited.remove(40);
        assert_eq!(edited.unshared_with(&original), 8 + 7);
        // A full chunk splits: the two halves are new, the rest shared.
        edited.insert(3, 7);
        assert_eq!(edited.unshared_with(&original), 9 + 8 + 7);
        assert_eq!(original.to_vec(), (0..64).collect::<Vec<_>>());
        assert_well_formed(&edited);
    }

    #[test]
    fn a_chunk_held_alone_is_edited_in_place() {
        let mut seq: Small = (0..40).collect();
        let first = seq.chunks().next().map(<[u32]>::as_ptr);
        seq.remove(3);
        seq.insert(0, 99);
        seq.replace(1, 98);
        assert_eq!(seq.chunks().next().map(<[u32]>::as_ptr), first);
        assert_eq!(seq.to_vec()[..4], [99, 98, 1, 2]);
        assert_well_formed(&seq);
    }

    #[test]
    fn iteration_starts_anywhere_and_ends_empty() {
        let seq: Small = (0..30).collect();
        for start in 0..=32 {
            let tail: Vec<u32> = seq.iter_from(start).copied().collect();
            assert_eq!(tail, (start.min(30) as u32..30).collect::<Vec<_>>());
        }
        assert_eq!(Small::new().iter().next(), None);
        assert_eq!(seq.get(30), None);
        assert_eq!(seq[29], 29);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Positional edits against a `Vec`: insert, remove, replace, lookup
        /// and order agree after every step, the invariants hold, and a clone
        /// taken before the edits never sees them.
        #[test]
        fn positional_edits_match_a_vec(
            start in 0usize..40,
            ops in collection::vec((0u8..3, 0usize..64, 0u32..1000), 0..120),
        ) {
            let mut seq: Small = (0..start as u32).collect();
            let mut oracle: Vec<u32> = (0..start as u32).collect();
            let frozen = seq.clone();
            for (kind, at, value) in ops {
                match kind {
                    0 => {
                        let at = at % (oracle.len() + 1);
                        seq.insert(at, value);
                        oracle.insert(at, value);
                    }
                    1 if !oracle.is_empty() => {
                        let at = at % oracle.len();
                        prop_assert_eq!(seq.remove(at), oracle.remove(at));
                    }
                    _ if !oracle.is_empty() => {
                        let at = at % oracle.len();
                        let old = std::mem::replace(&mut oracle[at], value);
                        prop_assert_eq!(seq.replace(at, value), old);
                    }
                    _ => {}
                }
                assert_well_formed(&seq);
                prop_assert_eq!(seq.len(), oracle.len());
                prop_assert_eq!(seq.to_vec(), oracle.clone());
                let probe = at % (oracle.len() + 1);
                prop_assert_eq!(seq.get(probe), oracle.get(probe));
                prop_assert!(seq.iter_from(probe).eq(oracle[probe..].iter()));
            }
            prop_assert_eq!(frozen.to_vec(), (0..start as u32).collect::<Vec<_>>());
        }

        /// Kept sorted through `partition_point`, the sequence is an ordered
        /// map: it agrees with a `BTreeMap` on every insert, remove, replace
        /// and lookup, in key order.
        #[test]
        fn a_sorted_sequence_matches_a_btree_map(
            ops in collection::vec((0u8..4, 0u32..48, 0u32..1000), 0..160),
        ) {
            let mut seq: Chunked<(u32, u32), 8> = Chunked::new();
            let mut oracle: BTreeMap<u32, u32> = BTreeMap::new();
            let mut snapshots = Vec::new();
            for (kind, key, value) in ops {
                let at = seq.partition_point(|(k, _)| *k < key);
                let held = seq.get(at).filter(|(k, _)| *k == key).map(|(_, v)| *v);
                prop_assert_eq!(held, oracle.get(&key).copied());
                match (kind, held) {
                    (0 | 1, None) => {
                        seq.insert(at, (key, value));
                        oracle.insert(key, value);
                    }
                    (0 | 1, Some(_)) => {
                        prop_assert_eq!(seq.replace(at, (key, value)).1, oracle[&key]);
                        oracle.insert(key, value);
                    }
                    (2, Some(_)) => {
                        prop_assert_eq!(seq.remove(at).1, oracle.remove(&key).unwrap());
                    }
                    _ => snapshots.push((seq.clone(), oracle.clone())),
                }
                assert_well_formed(&seq);
                let pairs: Vec<(u32, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(seq.to_vec(), pairs);
            }
            for (seq, oracle) in snapshots {
                let pairs: Vec<(u32, u32)> = oracle.into_iter().collect();
                prop_assert_eq!(seq.to_vec(), pairs, "a clone saw a later edit");
            }
        }
    }
}
