//! Bit-parallel three-valued words: [`WideWord`], `64 * W` lanes per word.

use crate::logic::Logic;

/// Number of 64-bit words per plane in the production wide kernel.
///
/// The kernel simulates `64 * LANE_WORDS` faults per batch; each plane of a
/// [`WideWord`] is a `[u64; LANE_WORDS]` that compiles to straight-line
/// word-parallel code (auto-vectorised on targets with 128/256-bit SIMD)
/// without any nightly-only `std::simd` dependency.
pub const LANE_WORDS: usize = 4;

/// Lanes per batch in the production wide kernel (`64 * LANE_WORDS`).
pub const LANES: usize = 64 * LANE_WORDS;

/// A three-valued value for each of `64 * W` independent lanes.
///
/// Bit `i` of `v1[w]` set means lane `64 * w + i` carries logic 1, the same
/// bit of `v0[w]` means logic 0, neither means X (both is invalid and never
/// produced). Operations are plain per-word bitwise expressions over
/// fixed-size arrays, so the compiler unrolls and vectorises them on stable
/// Rust. The kernel runs at `W = LANE_WORDS`; the dense oracle and the
/// narrow differential runs use `W = 1`, 64 lanes in one `u64` per plane.
///
/// Lane masks (detection, injection, full-batch masks) are `[u64; W]`
/// arrays with the same word/bit addressing.
///
/// # Example
///
/// ```
/// use limscan_sim::{Logic, WideWord};
///
/// let a = WideWord::<4>::broadcast(Logic::One);
/// let mut b = WideWord::<4>::broadcast(Logic::X);
/// b.set_lane(130, Logic::Zero);
/// let y = a.and(b);
/// assert_eq!(y.lane(130), Logic::Zero);
/// assert_eq!(y.lane(0), Logic::X);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WideWord<const W: usize> {
    /// Lanes carrying logic 0, 64 per word.
    pub v0: [u64; W],
    /// Lanes carrying logic 1, 64 per word.
    pub v1: [u64; W],
}

impl<const W: usize> Default for WideWord<W> {
    fn default() -> Self {
        Self::ALL_X
    }
}

impl<const W: usize> WideWord<W> {
    /// All lanes X.
    pub const ALL_X: WideWord<W> = WideWord {
        v0: [0; W],
        v1: [0; W],
    };

    /// The same scalar value in every lane.
    #[inline]
    pub fn broadcast(value: Logic) -> Self {
        match value {
            Logic::Zero => WideWord {
                v0: [!0; W],
                v1: [0; W],
            },
            Logic::One => WideWord {
                v0: [0; W],
                v1: [!0; W],
            },
            Logic::X => Self::ALL_X,
        }
    }

    /// The value in lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64 * W`.
    #[inline]
    pub fn lane(&self, i: usize) -> Logic {
        assert!(i < 64 * W, "lane {i} out of range");
        let (w, m) = (i / 64, 1u64 << (i % 64));
        if self.v1[w] & m != 0 {
            Logic::One
        } else if self.v0[w] & m != 0 {
            Logic::Zero
        } else {
            Logic::X
        }
    }

    /// Sets lane `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64 * W`.
    #[inline]
    pub fn set_lane(&mut self, i: usize, value: Logic) {
        assert!(i < 64 * W, "lane {i} out of range");
        let (w, m) = (i / 64, 1u64 << (i % 64));
        self.v0[w] &= !m;
        self.v1[w] &= !m;
        match value {
            Logic::Zero => self.v0[w] |= m,
            Logic::One => self.v1[w] |= m,
            Logic::X => {}
        }
    }

    /// Forces the lanes in `mask` to logic 0 (stuck-at-0 injection).
    #[inline]
    pub fn force_zero(mut self, mask: &[u64; W]) -> Self {
        for ((v0, v1), &m) in self.v0.iter_mut().zip(self.v1.iter_mut()).zip(mask) {
            *v0 |= m;
            *v1 &= !m;
        }
        self
    }

    /// Forces the lanes in `mask` to logic 1 (stuck-at-1 injection).
    #[inline]
    pub fn force_one(mut self, mask: &[u64; W]) -> Self {
        for ((v0, v1), &m) in self.v0.iter_mut().zip(self.v1.iter_mut()).zip(mask) {
            *v1 |= m;
            *v0 &= !m;
        }
        self
    }

    /// Lane-wise AND.
    #[inline]
    pub fn and(mut self, other: Self) -> Self {
        for w in 0..W {
            self.v0[w] |= other.v0[w];
            self.v1[w] &= other.v1[w];
        }
        self
    }

    /// Lane-wise OR.
    #[inline]
    pub fn or(mut self, other: Self) -> Self {
        for w in 0..W {
            self.v0[w] &= other.v0[w];
            self.v1[w] |= other.v1[w];
        }
        self
    }

    /// Lane-wise XOR.
    #[inline]
    pub fn xor(self, other: Self) -> Self {
        let mut r = Self::ALL_X;
        for w in 0..W {
            r.v0[w] = (self.v0[w] & other.v0[w]) | (self.v1[w] & other.v1[w]);
            r.v1[w] = (self.v0[w] & other.v1[w]) | (self.v1[w] & other.v0[w]);
        }
        r
    }

    /// Lane-wise NOT (also available as the `!` operator).
    #[inline]
    #[allow(clippy::should_implement_trait)] // `!` is provided too; the
                                             // inherent method keeps chained call sites readable without an import
    pub fn not(self) -> Self {
        WideWord {
            v0: self.v1,
            v1: self.v0,
        }
    }

    /// Lane-wise 2-to-1 multiplexer with `self` as select.
    #[inline]
    pub fn mux(self, d0: Self, d1: Self) -> Self {
        let mut r = Self::ALL_X;
        for w in 0..W {
            r.v0[w] = (self.v0[w] & d0.v0[w]) | (self.v1[w] & d1.v0[w]) | (d0.v0[w] & d1.v0[w]);
            r.v1[w] = (self.v0[w] & d0.v1[w]) | (self.v1[w] & d1.v1[w]) | (d0.v1[w] & d1.v1[w]);
        }
        r
    }

    /// Lanes where `self` and `other` carry complementary binary values —
    /// the three-valued-safe detection mask.
    #[inline]
    pub fn conflict_mask(&self, other: &Self) -> [u64; W] {
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            *word = (self.v0[w] & other.v1[w]) | (self.v1[w] & other.v0[w]);
        }
        m
    }

    /// Lanes holding a binary (non-X) value.
    #[inline]
    pub fn binary_mask(&self) -> [u64; W] {
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            *word = self.v0[w] | self.v1[w];
        }
        m
    }

    /// Lanes where `self` and `other` differ as three-valued values.
    ///
    /// Unlike [`conflict_mask`](Self::conflict_mask), which only reports
    /// complementary *binary* pairs, this is the exact comparison: X
    /// differs from both 0 and 1. Used by the equivalence checker, where
    /// an X/binary mismatch between two supposedly identical circuits is
    /// a finding, not a don't-know.
    #[inline]
    pub fn diff_mask(&self, other: &Self) -> [u64; W] {
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            *word = (self.v0[w] ^ other.v0[w]) | (self.v1[w] ^ other.v1[w]);
        }
        m
    }
}

impl<const W: usize> std::ops::Not for WideWord<W> {
    type Output = Self;

    #[inline]
    fn not(self) -> Self {
        WideWord {
            v0: self.v1,
            v1: self.v0,
        }
    }
}

/// Free helpers over `[u64; W]` lane masks.
pub(crate) mod mask {
    /// Mask covering lanes `0..n`.
    #[inline]
    pub(crate) fn full<const W: usize>(n: usize) -> [u64; W] {
        debug_assert!(n <= 64 * W);
        let mut m = [0u64; W];
        for (w, word) in m.iter_mut().enumerate() {
            let lo = w * 64;
            if n >= lo + 64 {
                *word = !0;
            } else if n > lo {
                *word = (1u64 << (n - lo)) - 1;
            }
        }
        m
    }

    /// Whether any lane is set.
    #[inline]
    pub(crate) fn any<const W: usize>(m: &[u64; W]) -> bool {
        m.iter().any(|&w| w != 0)
    }

    /// Number of set lanes.
    #[inline]
    pub(crate) fn count<const W: usize>(m: &[u64; W]) -> usize {
        m.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether lane `i` is set.
    #[inline]
    pub(crate) fn test<const W: usize>(m: &[u64; W], i: usize) -> bool {
        m[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets lane `i`.
    #[inline]
    pub(crate) fn set<const W: usize>(m: &mut [u64; W], i: usize) {
        m[i / 64] |= 1u64 << (i % 64);
    }

    /// `acc |= m`, lane-wise.
    #[inline]
    pub(crate) fn or_assign<const W: usize>(acc: &mut [u64; W], m: &[u64; W]) {
        for w in 0..W {
            acc[w] |= m[w];
        }
    }

    /// `a & b`, lane-wise.
    #[inline]
    pub(crate) fn and<const W: usize>(a: &[u64; W], b: &[u64; W]) -> [u64; W] {
        let mut r = [0u64; W];
        for w in 0..W {
            r[w] = a[w] & b[w];
        }
        r
    }

    /// `a & !b`, lane-wise.
    #[inline]
    pub(crate) fn and_not<const W: usize>(a: &[u64; W], b: &[u64; W]) -> [u64; W] {
        let mut r = [0u64; W];
        for w in 0..W {
            r[w] = a[w] & !b[w];
        }
        r
    }

    /// The lowest set lane, if any.
    #[inline]
    pub(crate) fn first<const W: usize>(m: &[u64; W]) -> Option<usize> {
        let w = m.iter().position(|&w| w != 0)?;
        Some(w * 64 + m[w].trailing_zeros() as usize)
    }

    /// Calls `f` with the index of every set lane, ascending.
    #[inline]
    pub(crate) fn for_each_set<const W: usize>(m: &[u64; W], mut f: impl FnMut(usize)) {
        for (w, &bits) in m.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let lane = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(lane);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    #[test]
    fn forcing_masks_inject_stuck_values() {
        let w = WideWord::<1>::broadcast(Logic::One);
        let f = w.force_zero(&[0b1010]);
        assert_eq!(f.lane(1), Logic::Zero);
        assert_eq!(f.lane(3), Logic::Zero);
        assert_eq!(f.lane(0), Logic::One);
        let g = WideWord::<1>::broadcast(Logic::X).force_one(&[0b1]);
        assert_eq!(g.lane(0), Logic::One);
        assert_eq!(g.lane(1), Logic::X);
    }

    #[test]
    fn conflict_mask_matches_scalar_conflicts() {
        for a in ALL {
            for b in ALL {
                let m = WideWord::<1>::broadcast(a).conflict_mask(&WideWord::broadcast(b));
                let expect = if a.conflicts(b) { !0u64 } else { 0 };
                assert_eq!(m, [expect], "{a} vs {b}");
            }
        }
    }

    #[test]
    fn not_operator_matches_method() {
        let mut w = WideWord::<1>::broadcast(Logic::One);
        w.set_lane(5, Logic::X);
        w.set_lane(9, Logic::Zero);
        assert_eq!(!w, w.not());
        assert_eq!(!!w, w);
    }

    #[test]
    fn binary_mask_excludes_x() {
        assert_eq!(WideWord::<1>::broadcast(Logic::X).binary_mask(), [0]);
        assert_eq!(WideWord::<1>::broadcast(Logic::One).binary_mask(), [!0]);
    }

    /// Wide-word ops must agree with the scalar ops in a lane of every
    /// 64-bit plane, not just the first.
    #[test]
    fn wide_ops_match_scalar_ops_across_planes() {
        let probes = [0, 63, 64, 129, 64 * LANE_WORDS - 1];
        for a in ALL {
            for b in ALL {
                let wa = WideWord::<LANE_WORDS>::broadcast(a);
                let wb = WideWord::<LANE_WORDS>::broadcast(b);
                for &i in &probes {
                    assert_eq!(wa.and(wb).lane(i), a.and(b), "{a} and {b} @{i}");
                    assert_eq!(wa.or(wb).lane(i), a.or(b), "{a} or {b} @{i}");
                    assert_eq!(wa.xor(wb).lane(i), a.xor(b), "{a} xor {b} @{i}");
                    assert_eq!(wa.not().lane(i), a.not(), "not {a} @{i}");
                    for s in ALL {
                        let ws = WideWord::<LANE_WORDS>::broadcast(s);
                        assert_eq!(ws.mux(wa, wb).lane(i), s.mux(a, b), "mux @{i}");
                    }
                }
            }
        }
    }

    #[test]
    fn wide_lanes_are_independent_across_plane_boundaries() {
        let mut w = WideWord::<LANE_WORDS>::ALL_X;
        w.set_lane(63, Logic::Zero);
        w.set_lane(64, Logic::One);
        w.set_lane(LANES - 1, Logic::Zero);
        assert_eq!(w.lane(62), Logic::X);
        assert_eq!(w.lane(63), Logic::Zero);
        assert_eq!(w.lane(64), Logic::One);
        assert_eq!(w.lane(65), Logic::X);
        assert_eq!(w.lane(LANES - 1), Logic::Zero);
        w.set_lane(64, Logic::X);
        assert_eq!(w.lane(64), Logic::X);
        assert_eq!(w.lane(63), Logic::Zero, "neighbour plane untouched");
    }

    #[test]
    fn wide_forcing_and_conflicts_act_per_plane() {
        let mut sa0 = [0u64; LANE_WORDS];
        sa0[1] = 0b100; // lane 66
        let f = WideWord::<LANE_WORDS>::broadcast(Logic::One).force_zero(&sa0);
        assert_eq!(f.lane(66), Logic::Zero);
        assert_eq!(f.lane(2), Logic::One);
        assert_eq!(f.lane(130), Logic::One);

        let g = WideWord::<LANE_WORDS>::broadcast(Logic::One);
        let m = f.conflict_mask(&g);
        assert_eq!(m, sa0, "only the forced lane conflicts");
        let bm = f.binary_mask();
        assert_eq!(bm, [!0u64; LANE_WORDS], "forcing keeps lanes binary");
    }

    #[test]
    fn mask_helpers_cover_plane_boundaries() {
        assert_eq!(mask::full::<LANE_WORDS>(0), [0; LANE_WORDS]);
        let m64 = mask::full::<LANE_WORDS>(64);
        assert_eq!(m64[0], !0);
        assert_eq!(m64[1], 0);
        let m65 = mask::full::<LANE_WORDS>(65);
        assert_eq!(m65[0], !0);
        assert_eq!(m65[1], 1);
        assert_eq!(mask::full::<LANE_WORDS>(LANES), [!0; LANE_WORDS]);
        assert_eq!(mask::count(&m65), 65);
        assert!(mask::test(&m65, 64) && !mask::test(&m65, 65));

        let mut m = [0u64; LANE_WORDS];
        mask::set(&mut m, 63);
        mask::set(&mut m, 64);
        mask::set(&mut m, LANES - 1);
        assert!(mask::any(&m));
        let mut seen = Vec::new();
        mask::for_each_set(&m, |lane| seen.push(lane));
        assert_eq!(seen, vec![63, 64, LANES - 1], "ascending across planes");

        let not64 = mask::and_not(&m, &m64);
        assert!(!mask::test(&not64, 63) && mask::test(&not64, 64));
        let both = mask::and(&m, &m65);
        assert_eq!(mask::count(&both), 2, "lanes 63 and 64 survive");
    }
}
