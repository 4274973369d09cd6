//! Tag identity and the unread-tag set.

use serde::{Deserialize, Serialize};

/// Index of a tag within its [`Deployment`](crate::Deployment), zero-based.
pub type TagId = usize;

/// A dense set of tags tracking which are still *unread*.
///
/// The paper's weight `w(X)` and the covering-schedule loop both operate on
/// the set of unread tags; a served tag "leaves the system". `TagSet` packs
/// membership into `u64` words with a cached count, so `w(X)` evaluation
/// and the MCS termination test are O(1) per membership query, and the
/// bitset extraction path ([`crate::bits`]) can intersect 64 tags of
/// coverage at a time against [`words`](Self::words).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagSet {
    /// Bit `t % 64` of `words[t / 64]` is set iff tag `t` is unread; bits
    /// at and beyond `len` are always clear.
    words: Vec<u64>,
    len: usize,
    remaining: usize,
}

impl TagSet {
    /// All `m` tags unread.
    pub fn all_unread(m: usize) -> Self {
        let mut words = vec![u64::MAX; m.div_ceil(64)];
        if !m.is_multiple_of(64) {
            *words.last_mut().unwrap() = (1u64 << (m % 64)) - 1;
        }
        TagSet {
            words,
            len: m,
            remaining: m,
        }
    }

    /// Total number of tags (read or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the deployment has no tags at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tags still unread.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// `true` iff `tag` has not been served yet.
    #[inline]
    pub fn is_unread(&self, tag: TagId) -> bool {
        assert!(tag < self.len, "tag {tag} out of range {}", self.len);
        self.words[tag / 64] >> (tag % 64) & 1 == 1
    }

    /// The packed membership words (unread = set bit), tail bits clear.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Marks `tag` as served; idempotent.
    pub fn mark_read(&mut self, tag: TagId) {
        assert!(tag < self.len, "tag {tag} out of range {}", self.len);
        let (w, bit) = (tag / 64, 1u64 << (tag % 64));
        if self.words[w] & bit != 0 {
            self.words[w] &= !bit;
            self.remaining -= 1;
        }
    }

    /// Marks many tags served.
    pub fn mark_all_read(&mut self, tags: &[TagId]) {
        for &t in tags {
            self.mark_read(t);
        }
    }

    /// Iterator over unread tag ids, ascending.
    pub fn iter_unread(&self) -> impl Iterator<Item = TagId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(t)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_set_is_all_unread() {
        let s = TagSet::all_unread(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.remaining(), 5);
        assert!((0..5).all(|t| s.is_unread(t)));
    }

    #[test]
    fn marking_is_idempotent() {
        let mut s = TagSet::all_unread(3);
        s.mark_read(1);
        s.mark_read(1);
        assert_eq!(s.remaining(), 2);
        assert!(!s.is_unread(1));
        assert!(s.is_unread(0));
    }

    #[test]
    fn bulk_marking_and_iteration() {
        let mut s = TagSet::all_unread(6);
        s.mark_all_read(&[0, 2, 4, 4]);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.iter_unread().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn empty_set() {
        let s = TagSet::all_unread(0);
        assert!(s.is_empty());
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.iter_unread().count(), 0);
    }

    #[test]
    fn word_boundaries_are_exact() {
        for m in [63, 64, 65, 128, 130] {
            let mut s = TagSet::all_unread(m);
            assert_eq!(s.words().len(), m.div_ceil(64));
            let tail_bits: u32 = s.words().iter().map(|w| w.count_ones()).sum();
            assert_eq!(tail_bits as usize, m, "tail bits must be clear at m={m}");
            s.mark_read(m - 1);
            s.mark_read(0);
            assert_eq!(s.remaining(), m - 2);
            assert_eq!(s.iter_unread().count(), m - 2);
            assert!(!s.is_unread(m - 1));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_query_panics() {
        TagSet::all_unread(64).is_unread(64);
    }
}
