//! A fixed-width bitset used as the posting-list representation of the
//! query-evaluation index, and a sparse form for small match sets.
//!
//! The hidden-database experiments evaluate millions of conjunctive
//! queries against tables of a few hundred thousand rows; a flat `u64`
//! bitset per `(attribute, value)` pair makes each query an AND of `s`
//! bitsets plus a popcount, which is the dominant cost of the whole
//! harness. Postings stay uncompressed: each value matches a sizeable
//! fraction of rows, and at those densities compressed formats are
//! slower.
//!
//! Deep drill-down nodes are different. A node a dozen predicates below
//! the root matches tens of rows out of hundreds of thousands, so nearly
//! every word of its dense bitmap is zero. A walk node of that kind is
//! kept as the ascending `(word index, word)` pairs of its nonzero words,
//! and its kernels (AND-count, AND into a child, row iteration) cost the
//! node's nonzero words instead of the table's width. Only the walk
//! state of `backend.rs` uses the sparse form; it chooses per node.

/// A fixed-length bitset over `len` bits backed by `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zeros bitmap over `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// An all-ones bitmap over `len` bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut b = Self { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.clear_tail();
        b
    }

    /// Zeroes any bits beyond `len` in the final word, maintaining the
    /// invariant that trailing bits are always 0 (required for `count`).
    fn clear_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Number of set bits in `self & other` without materialising the
    /// intersection.
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn and_count(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Number of set bits in `self & b & c` in one fused pass — the
    /// 3-predicate counting kernel (no intermediate bitmap, one traversal
    /// instead of two).
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn and_count_3(&self, b: &Bitmap, c: &Bitmap) -> usize {
        assert_eq!(self.len, b.len, "bitmap length mismatch");
        assert_eq!(self.len, c.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((x, y), z)| (x & y & z).count_ones() as usize)
            .sum()
    }

    /// Makes `self` the intersection `a & b` in one fused copy-and-AND
    /// pass, reusing `self`'s allocation when it is large enough — the
    /// scratch-buffer kernel behind walk-session `extend` steps. Returns
    /// the number of nonzero words of the result, counted in the same
    /// pass.
    ///
    /// # Panics
    /// Panics if `a` and `b` differ in length.
    pub fn assign_and(&mut self, a: &Bitmap, b: &Bitmap) -> usize {
        assert_eq!(a.len, b.len, "bitmap length mismatch");
        self.len = a.len;
        self.words.clear();
        let mut nonzero = 0;
        self.words.extend(a.words.iter().zip(&b.words).map(|(x, y)| {
            let w = x & y;
            nonzero += usize::from(w != 0);
            w
        }));
        nonzero
    }

    /// Makes `self` a copy of `other`, reusing `self`'s allocation when it
    /// is large enough (the derived `Clone::clone_from` always
    /// reallocates). Returns the number of nonzero words, counted in the
    /// same pass.
    pub fn copy_from(&mut self, other: &Bitmap) -> usize {
        self.len = other.len;
        self.words.clear();
        let mut nonzero = 0;
        self.words.extend(other.words.iter().map(|&w| {
            nonzero += usize::from(w != 0);
            w
        }));
        nonzero
    }

    /// Number of `u64` words backing the bitmap.
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Iterator over the indices of set bits of `self & other`, ascending,
    /// without materialising the intersection.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn iter_and_ones<'a>(&'a self, other: &'a Bitmap) -> AndOnesIter<'a> {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let current = match (self.words.first(), other.words.first()) {
            (Some(a), Some(b)) => a & b,
            _ => 0,
        };
        AndOnesIter { a: &self.words, b: &other.words, word_idx: 0, current }
    }

    /// Whether `self & other` has any set bit (with early exit).
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn intersects(&self, other: &Bitmap) -> bool {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Collects up to `limit` set-bit indices, ascending. Used by the
    /// top-k interface to cut off result materialisation at `k`.
    #[must_use]
    pub fn first_ones(&self, limit: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(limit.min(self.len));
        for i in self.iter_ones() {
            if out.len() == limit {
                break;
            }
            out.push(i);
        }
        out
    }
}

/// Iterator over set-bit positions of a [`Bitmap`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Iterator over set-bit positions of the intersection of two [`Bitmap`]s
/// (see [`Bitmap::iter_and_ones`]).
pub struct AndOnesIter<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for AndOnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.a.len() {
                return None;
            }
            self.current = self.a[self.word_idx] & self.b[self.word_idx];
        }
    }
}

/// A bitset over `len` bits stored as the ascending `(word index, word)`
/// pairs of its nonzero words. Every kernel pairs it with a dense
/// [`Bitmap`] of the same length and touches only the listed words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SparseBitmap {
    pairs: Vec<(usize, u64)>,
    len: usize,
}

impl SparseBitmap {
    /// Makes `self` the nonzero words of `dense`, reusing `self`'s
    /// allocation.
    pub(crate) fn assign_from(&mut self, dense: &Bitmap) {
        self.len = dense.len;
        self.pairs.clear();
        self.pairs
            .extend(dense.words.iter().enumerate().filter(|&(_, &w)| w != 0).map(|(i, &w)| (i, w)));
    }

    /// Number of set bits in `self & dense`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub(crate) fn and_count(&self, dense: &Bitmap) -> usize {
        assert_eq!(self.len, dense.len, "bitmap length mismatch");
        self.pairs.iter().map(|&(i, w)| (w & dense.words[i]).count_ones() as usize).sum()
    }

    /// Makes `out` the intersection `self & dense`, keeping only its
    /// nonzero words and reusing `out`'s allocation.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub(crate) fn and_into(&self, dense: &Bitmap, out: &mut SparseBitmap) {
        assert_eq!(self.len, dense.len, "bitmap length mismatch");
        out.len = self.len;
        out.pairs.clear();
        out.pairs.reserve(self.pairs.len());
        out.pairs.extend(
            self.pairs.iter().map(|&(i, w)| (i, w & dense.words[i])).filter(|&(_, w)| w != 0),
        );
    }

    /// Iterator over the indices of set bits of `self & dense`,
    /// ascending, without materialising the intersection.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub(crate) fn iter_and_ones<'a>(&'a self, dense: &'a Bitmap) -> SparseAndOnesIter<'a> {
        assert_eq!(self.len, dense.len, "bitmap length mismatch");
        SparseAndOnesIter { pairs: &self.pairs, dense: &dense.words, base: 0, current: 0 }
    }
}

/// Iterator over set-bit positions of a [`SparseBitmap`] ∩ [`Bitmap`]
/// pair (see [`SparseBitmap::iter_and_ones`]).
pub(crate) struct SparseAndOnesIter<'a> {
    pairs: &'a [(usize, u64)],
    dense: &'a [u64],
    /// Bit index of the first bit of `current`.
    base: usize,
    current: u64,
}

impl Iterator for SparseAndOnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            let (&(i, w), rest) = self.pairs.split_first()?;
            self.pairs = rest;
            self.base = i * 64;
            self.current = w & self.dense[i];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(130);
        assert_eq!(z.count(), 0);
        let o = Bitmap::ones(130);
        assert_eq!(o.count(), 130);
        assert!(o.get(129));
    }

    #[test]
    fn ones_clears_tail_bits() {
        // count must not include bits beyond len in the last word
        let o = Bitmap::ones(65);
        assert_eq!(o.count(), 65);
        let o = Bitmap::ones(64);
        assert_eq!(o.count(), 64);
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::zeros(100);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1));
        assert_eq!(b.count(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::zeros(10).set(10);
    }

    #[test]
    fn and_operations_agree() {
        let mut a = Bitmap::zeros(200);
        let mut b = Bitmap::zeros(200);
        for i in (0..200).step_by(3) {
            a.set(i);
        }
        for i in (0..200).step_by(5) {
            b.set(i);
        }
        let expected: Vec<usize> = (0..200).step_by(15).collect();
        assert_eq!(a.and_count(&b), expected.len());
        assert!(a.intersects(&b));
        let mut c = a.clone();
        c.and_with(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn disjoint_bitmaps_do_not_intersect() {
        let mut a = Bitmap::zeros(70);
        let mut b = Bitmap::zeros(70);
        a.set(3);
        b.set(4);
        assert!(!a.intersects(&b));
        assert_eq!(a.and_count(&b), 0);
    }

    #[test]
    fn fused_kernels_agree_with_composed_operations() {
        let mut a = Bitmap::zeros(300);
        let mut b = Bitmap::zeros(300);
        let mut c = Bitmap::zeros(300);
        for i in (0..300).step_by(2) {
            a.set(i);
        }
        for i in (0..300).step_by(3) {
            b.set(i);
        }
        for i in (0..300).step_by(5) {
            c.set(i);
        }
        // and_count_3 == count of a & b & c
        let mut ab = a.clone();
        ab.and_with(&b);
        let mut abc = ab.clone();
        abc.and_with(&c);
        assert_eq!(a.and_count_3(&b, &c), abc.count());
        // assign_and reuses the target buffer and matches and_with
        let mut scratch = Bitmap::zeros(1);
        scratch.assign_and(&a, &b);
        assert_eq!(scratch, ab);
        scratch.assign_and(&ab, &c);
        assert_eq!(scratch, abc);
        // iter_and_ones enumerates the same set
        assert_eq!(
            a.iter_and_ones(&b).collect::<Vec<_>>(),
            ab.iter_ones().collect::<Vec<_>>()
        );
        assert_eq!(a.iter_and_ones(&b).count(), a.and_count(&b));
    }

    #[test]
    fn and_ones_iterator_handles_empty_and_disjoint() {
        let a = Bitmap::zeros(0);
        assert_eq!(a.iter_and_ones(&a).count(), 0);
        let mut x = Bitmap::zeros(70);
        let mut y = Bitmap::zeros(70);
        x.set(3);
        y.set(4);
        assert_eq!(x.iter_and_ones(&y).count(), 0);
        y.set(3);
        assert_eq!(x.iter_and_ones(&y).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn first_ones_truncates() {
        let mut a = Bitmap::zeros(100);
        for i in 0..50 {
            a.set(i * 2);
        }
        assert_eq!(a.first_ones(3), vec![0, 2, 4]);
        assert_eq!(a.first_ones(100).len(), 50);
    }

    #[test]
    fn iter_ones_across_word_boundaries() {
        let mut a = Bitmap::zeros(192);
        for &i in &[0usize, 63, 64, 127, 128, 191] {
            a.set(i);
        }
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 191]);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }
}
