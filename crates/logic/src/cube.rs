//! Cubes and covers (two-level sum-of-products representation).
//!
//! A [`Cube`] is stored as two bit planes — a *care* mask (which variables
//! are fixed) and a *value* plane (their phases) — packed into 64-bit
//! words.  Covers with at most [`Cube::INLINE_VARS`] variables keep both
//! planes inline (no heap allocation per cube); wider spaces spill to a
//! boxed slice, so the representation has no upper limit on the variable
//! count.  Minterm membership (`contains_minterm`) is a word-parallel bit
//! operation rather than a per-literal scan.

use std::fmt;

/// The value of one variable inside a cube.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Literal {
    /// The variable must be 0.
    Zero,
    /// The variable must be 1.
    One,
    /// The variable does not appear in the cube.
    DontCare,
}

/// Words kept inline before spilling to the heap (`2 × 64 = 128` variables).
const INLINE_WORDS: usize = 2;

/// One bit plane of a cube: inline up to [`INLINE_WORDS`] words, boxed
/// beyond.  Trailing bits past the variable count are always zero, so the
/// derived `Eq`/`Hash` are canonical.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Plane {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl Plane {
    fn zeroed(words: usize) -> Self {
        if words <= INLINE_WORDS {
            Plane::Inline([0; INLINE_WORDS])
        } else {
            Plane::Heap(vec![0; words].into_boxed_slice())
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match self {
            Plane::Inline(w) => w,
            Plane::Heap(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Plane::Inline(w) => w,
            Plane::Heap(w) => w,
        }
    }
}

/// A product term over `n` Boolean variables.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    num_vars: u32,
    care: Plane,
    value: Plane,
}

impl Cube {
    /// Number of variables representable without heap allocation.
    pub const INLINE_VARS: usize = INLINE_WORDS * 64;

    /// The universal cube (no literal fixed) over `n` variables.
    pub fn universe(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        Cube { num_vars: n as u32, care: Plane::zeroed(words), value: Plane::zeroed(words) }
    }

    /// A minterm: every variable fixed according to `bits` (bit `i` =
    /// variable `i`).  Variables beyond the range of `u64` (index ≥ 64) are
    /// fixed to 0; use [`Cube::minterm_words`] to fix them freely.
    pub fn minterm(n: usize, bits: u64) -> Self {
        Self::minterm_words(n, &[bits])
    }

    /// A minterm over arbitrarily many variables: bit `i % 64` of word
    /// `i / 64` gives the value of variable `i`; missing words read as zero.
    pub fn minterm_words(n: usize, bits: &[u64]) -> Self {
        let mut cube = Cube::universe(n);
        let care = cube.care.words_mut();
        for (w, word) in care.iter_mut().enumerate() {
            let vars_here = n.saturating_sub(w * 64).min(64);
            *word = ones(vars_here);
        }
        let value = cube.value.words_mut();
        for (w, word) in value.iter_mut().enumerate() {
            let vars_here = n.saturating_sub(w * 64).min(64);
            *word = bits.get(w).copied().unwrap_or(0) & ones(vars_here);
        }
        cube
    }

    /// A cube from `(variable, phase)` literals over `n` variables.
    pub fn from_literals(n: usize, literals: &[(usize, bool)]) -> Self {
        let mut cube = Cube::universe(n);
        for &(var, phase) in literals {
            cube.set_literal(var, if phase { Literal::One } else { Literal::Zero });
        }
        cube
    }

    /// Number of variables of the cube's space.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The literal of variable `var`.
    pub fn literal(&self, var: usize) -> Literal {
        assert!(var < self.num_vars(), "variable {var} out of range");
        let (w, bit) = (var / 64, 1u64 << (var % 64));
        if self.care.words()[w] & bit == 0 {
            Literal::DontCare
        } else if self.value.words()[w] & bit != 0 {
            Literal::One
        } else {
            Literal::Zero
        }
    }

    /// Sets the literal of variable `var`.
    pub fn set_literal(&mut self, var: usize, literal: Literal) {
        assert!(var < self.num_vars(), "variable {var} out of range");
        let (w, bit) = (var / 64, 1u64 << (var % 64));
        match literal {
            Literal::DontCare => {
                self.care.words_mut()[w] &= !bit;
                // Keep value bits ⊆ care bits so Eq/Hash stay canonical.
                self.value.words_mut()[w] &= !bit;
            }
            Literal::Zero => {
                self.care.words_mut()[w] |= bit;
                self.value.words_mut()[w] &= !bit;
            }
            Literal::One => {
                self.care.words_mut()[w] |= bit;
                self.value.words_mut()[w] |= bit;
            }
        }
    }

    /// Number of fixed literals (the cube's contribution to the literal
    /// count of a cover).
    pub fn literal_count(&self) -> usize {
        self.care.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the cube contains the given minterm (variables
    /// beyond index 63 read as 0; see [`Cube::contains_minterm_words`]).
    pub fn contains_minterm(&self, bits: u64) -> bool {
        self.contains_minterm_words(&[bits])
    }

    /// Returns `true` if the cube contains the minterm given as packed
    /// words (missing words read as zero).
    pub fn contains_minterm_words(&self, bits: &[u64]) -> bool {
        self.care
            .words()
            .iter()
            .zip(self.value.words())
            .enumerate()
            .all(|(w, (&care, &value))| (value ^ bits.get(w).copied().unwrap_or(0)) & care == 0)
    }

    /// Renders the cube in the usual `10-1` positional notation.
    pub fn to_pattern(&self) -> String {
        (0..self.num_vars())
            .map(|v| match self.literal(v) {
                Literal::Zero => '0',
                Literal::One => '1',
                Literal::DontCare => '-',
            })
            .collect()
    }
}

/// An all-ones mask of the lowest `n ≤ 64` bits.
#[inline]
fn ones(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({})", self.to_pattern())
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_pattern())
    }
}

/// A sum of product terms.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Cover {
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant 0).
    pub fn empty() -> Self {
        Cover { cubes: Vec::new() }
    }

    /// Builds a cover from cubes.
    pub fn from_cubes(cubes: Vec<Cube>) -> Self {
        Cover { cubes }
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Adds a cube.
    pub fn push(&mut self, cube: Cube) {
        self.cubes.push(cube);
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Returns `true` if the cover has no cubes (constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Total number of literals across all cubes — the area metric.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Returns `true` if some cube contains the minterm.
    pub fn contains_minterm(&self, bits: u64) -> bool {
        self.cubes.iter().any(|c| c.contains_minterm(bits))
    }

    /// Returns `true` if some cube contains the minterm given as packed
    /// words.
    pub fn contains_minterm_words(&self, bits: &[u64]) -> bool {
        self.cubes.iter().any(|c| c.contains_minterm_words(bits))
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.cubes.iter().map(Cube::to_pattern)).finish()
    }
}

impl FromIterator<Cube> for Cover {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        Cover { cubes: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterms_and_patterns() {
        let c = Cube::minterm(4, 0b1010);
        assert_eq!(c.to_pattern(), "0101");
        assert!(c.contains_minterm(0b1010));
        assert!(!c.contains_minterm(0b1011));
        assert_eq!(c.literal_count(), 4);
        assert_eq!(Cube::universe(4).literal_count(), 0);
        assert!(Cube::universe(4).contains_minterm(0b1111));
    }

    #[test]
    fn cover_queries() {
        let cover: Cover = [Cube::minterm(3, 0b001), Cube::minterm(3, 0b110)].into_iter().collect();
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.literal_count(), 6);
        assert!(cover.contains_minterm(0b001));
        assert!(!cover.contains_minterm(0b111));
        assert!(Cover::empty().is_empty());
        assert_eq!(Cover::empty().literal_count(), 0);
    }

    #[test]
    fn display_uses_positional_notation() {
        let mut c = Cube::universe(3);
        c.set_literal(1, Literal::Zero);
        c.set_literal(2, Literal::One);
        assert_eq!(format!("{c}"), "-01");
    }

    #[test]
    fn set_literal_round_trips_and_stays_canonical() {
        let mut c = Cube::universe(5);
        c.set_literal(3, Literal::One);
        assert_eq!(c.literal(3), Literal::One);
        c.set_literal(3, Literal::Zero);
        assert_eq!(c.literal(3), Literal::Zero);
        c.set_literal(3, Literal::DontCare);
        assert_eq!(c.literal(3), Literal::DontCare);
        // Clearing back to don't-care must restore full equality with the
        // untouched universe (value bits are masked by care bits).
        assert_eq!(c, Cube::universe(5));
    }

    #[test]
    fn wide_cubes_cross_word_boundaries() {
        // 200 variables: three words, heap-backed.
        let n = 200;
        let mut c = Cube::universe(n);
        assert_eq!(c.literal_count(), 0);
        for var in [0, 63, 64, 127, 128, 199] {
            c.set_literal(var, Literal::One);
        }
        c.set_literal(70, Literal::Zero);
        assert_eq!(c.literal_count(), 7);
        assert_eq!(c.literal(64), Literal::One);
        assert_eq!(c.literal(70), Literal::Zero);
        assert_eq!(c.literal(65), Literal::DontCare);

        // Word-array minterms agree with per-variable queries.
        let bits = [u64::MAX, 0b1, 0];
        let m = Cube::minterm_words(n, &bits);
        assert_eq!(m.literal_count(), n);
        assert_eq!(m.literal(63), Literal::One);
        assert_eq!(m.literal(64), Literal::One);
        assert_eq!(m.literal(65), Literal::Zero);
        assert!(m.contains_minterm_words(&bits));
        assert!(!m.contains_minterm_words(&[u64::MAX, 0b11, 0]));
    }

    #[test]
    fn inline_storage_boundary() {
        // 128 variables still fit inline; 129 spill to the heap.  Behaviour
        // must be identical either side of the boundary.
        for n in [128usize, 129] {
            let mut c = Cube::universe(n);
            c.set_literal(n - 1, Literal::One);
            assert_eq!(c.literal(n - 1), Literal::One);
            assert_eq!(c.literal_count(), 1);
            let m = Cube::minterm_words(n, &[0, !0, !0]);
            assert_eq!(m.literal_count(), n);
            assert!(m.contains_minterm_words(&[0, !0, !0]));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn literal_out_of_range_panics() {
        let c = Cube::universe(4);
        let _ = c.literal(4);
    }
}
