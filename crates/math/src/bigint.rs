//! A minimal arbitrary-precision **unsigned** integer.
//!
//! The CKKS decoder needs to reconstruct centered values modulo
//! `Q = q_0 · q_1 · … · q_L` (several hundred bits) from RNS residues. This
//! module implements just enough big-integer arithmetic for that CRT step —
//! little-endian `u64` limbs with schoolbook operations — avoiding an
//! external bignum dependency.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
///
/// The representation is normalized: no trailing zero limbs; zero is the
/// empty limb vector.
///
/// # Example
///
/// ```
/// use uvpu_math::bigint::UBig;
///
/// let a = UBig::from(u64::MAX);
/// let b = a.mul_u64(u64::MAX);
/// assert_eq!(b.rem_u64(7), ((u128::from(u64::MAX) * u128::from(u64::MAX)) % 7) as u64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct UBig {
    limbs: Vec<u64>,
}

impl UBig {
    /// The value zero.
    #[must_use]
    pub const fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// The value one.
    #[must_use]
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Whether this is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() as u32 - 1) + (64 - top.leading_zeros()),
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Adds another big integer.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow).
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "UBig::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Multiplies by a single word.
    #[must_use]
    pub fn mul_u64(&self, k: u64) -> Self {
        if k == 0 || self.is_zero() {
            return Self::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &limb in &self.limbs {
            let t = u128::from(limb) * u128::from(k) + u128::from(carry);
            out.push(t as u64);
            carry = (t >> 64) as u64;
        }
        if carry > 0 {
            out.push(carry);
        }
        Self { limbs: out }
    }

    /// Full big × big multiplication (schoolbook).
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + u128::from(carry);
                out[i + j] = t as u64;
                carry = (t >> 64) as u64;
            }
            out[i + other.limbs.len()] = out[i + other.limbs.len()].wrapping_add(carry);
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Divides by a single word, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn div_rem_u64(&self, k: u64) -> (Self, u64) {
        assert_ne!(k, 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u64;
        for i in (0..self.limbs.len()).rev() {
            let cur = (u128::from(rem) << 64) | u128::from(self.limbs[i]);
            out[i] = (cur / u128::from(k)) as u64;
            rem = (cur % u128::from(k)) as u64;
        }
        let mut q = Self { limbs: out };
        q.normalize();
        (q, rem)
    }

    /// Remainder modulo a single word.
    #[must_use]
    pub fn rem_u64(&self, k: u64) -> u64 {
        self.div_rem_u64(k).1
    }

    /// Shifts left by one bit (doubles the value).
    #[must_use]
    pub fn shl1(&self) -> Self {
        self.mul_u64(2)
    }

    /// Converts to `f64` (loses precision beyond 53 bits, as expected).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        words_to_f64(&self.limbs)
    }

    /// The value as exactly `width` little-endian limbs (zero-padded).
    ///
    /// # Panics
    ///
    /// Panics if the value needs more than `width` limbs.
    pub(crate) fn to_words(&self, width: usize) -> Vec<u64> {
        assert!(self.limbs.len() <= width, "UBig wider than {width} limbs");
        let mut words = self.limbs.clone();
        words.resize(width, 0);
        words
    }

    /// Reduces `self` modulo `m` when `self < bound · m` for small `bound`,
    /// by repeated subtraction (used after CRT accumulation where
    /// `self < L · Q`).
    #[must_use]
    pub fn rem_by_subtraction(&self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modulus must be nonzero");
        let mut r = self.clone();
        while &r >= m {
            // Subtract the largest shifted multiple of m that fits, so the
            // loop is O(bits) even for large quotients.
            let shift = r.bits().saturating_sub(m.bits());
            let mut candidate = m.clone();
            for _ in 0..shift {
                candidate = candidate.shl1();
            }
            if candidate > r {
                candidate = m.clone();
                for _ in 0..shift.saturating_sub(1) {
                    candidate = candidate.shl1();
                }
            }
            r = r.sub(&candidate);
        }
        r
    }
}

// Fixed-width limb-slice arithmetic: the allocation-free core of the
// centered CRT in `rns`. Operands are little-endian limbs of equal width.

/// `acc += a·k`.
///
/// # Panics
///
/// Panics (debug) if the sum overflows `acc`'s width.
pub(crate) fn words_mul_add(acc: &mut [u64], a: &[u64], k: u64) {
    let mut carry = 0u64;
    for (x, &y) in acc.iter_mut().zip(a) {
        let t = u128::from(y) * u128::from(k) + u128::from(*x) + u128::from(carry);
        *x = t as u64;
        carry = (t >> 64) as u64;
    }
    debug_assert_eq!(carry, 0, "fixed-width accumulator overflow");
}

/// `acc −= b`; requires `acc ≥ b`.
pub(crate) fn words_sub_assign(acc: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, &y) in acc.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *x = d2;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow, "fixed-width subtraction underflow");
}

/// `acc = b − acc`; requires `b ≥ acc`.
pub(crate) fn words_rsub_assign(acc: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, &y) in acc.iter_mut().zip(b) {
        let (d1, b1) = y.overflowing_sub(*x);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *x = d2;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow, "fixed-width subtraction underflow");
}

/// Numeric comparison of two equal-width limb slices.
pub(crate) fn words_cmp(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    a.iter().rev().cmp(b.iter().rev())
}

/// Limbs to `f64`, most significant first. Zero padding limbs leave the
/// result unchanged, so a fixed-width value converts bit-identically to
/// its normalized [`UBig`].
pub(crate) fn words_to_f64(words: &[u64]) -> f64 {
    let mut acc = 0.0f64;
    for &limb in words.iter().rev() {
        acc = acc * 1.8446744073709552e19 + limb as f64; // 2^64
    }
    acc
}

impl From<u64> for UBig {
    fn from(x: u64) -> Self {
        if x == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![x] }
        }
    }
}

impl From<u128> for UBig {
    fn from(x: u128) -> Self {
        let mut r = Self {
            limbs: vec![x as u64, (x >> 64) as u64],
        };
        r.normalize();
        r
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Display for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        write!(f, "{}", chunks.pop().expect("nonzero"))?;
        for c in chunks.iter().rev() {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_zero() {
        assert!(UBig::zero().is_zero());
        assert!(UBig::from(0u64).is_zero());
        assert!(!UBig::one().is_zero());
        assert_eq!(UBig::from(42u64).bits(), 6);
        assert_eq!(UBig::zero().bits(), 0);
        assert_eq!(UBig::from(1u128 << 100).bits(), 101);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = UBig::from(u128::MAX);
        let b = UBig::from(u64::MAX);
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
        assert_eq!(a.add(&UBig::zero()), a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = UBig::one().sub(&UBig::from(2u64));
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_cafe_babeu64;
        let b = 0x1234_5678_9abc_def0u64;
        let prod = UBig::from(a).mul(&UBig::from(b));
        assert_eq!(prod, UBig::from(u128::from(a) * u128::from(b)));
        assert_eq!(UBig::from(a).mul_u64(b), prod);
    }

    #[test]
    fn mul_big_associative_sample() {
        let a = UBig::from(u128::MAX).mul_u64(12345);
        let b = UBig::from(0xffff_ffff_ffffu64);
        let c = UBig::from(97u64);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn div_rem_reconstructs() {
        let x = UBig::from(u128::MAX).mul_u64(0x1234_5678);
        for k in [1u64, 2, 3, 10, u64::MAX] {
            let (q, r) = x.div_rem_u64(k);
            assert!(r < k);
            assert_eq!(q.mul_u64(k).add(&UBig::from(r)), x);
        }
    }

    #[test]
    fn rem_by_subtraction_matches_div() {
        let m = UBig::from(0x0fff_ffff_ffd8_0001u64);
        let x = m.mul_u64(123).add(&UBig::from(98765u64));
        assert_eq!(x.rem_by_subtraction(&m), UBig::from(98765u64));
        // x smaller than m stays untouched.
        assert_eq!(UBig::from(5u64).rem_by_subtraction(&m), UBig::from(5u64));
        // Large quotient exercises the shifted-subtraction path.
        let y = m.mul(&m).add(&UBig::one());
        assert_eq!(y.rem_by_subtraction(&m), UBig::one());
    }

    #[test]
    fn display_matches_decimal() {
        assert_eq!(UBig::zero().to_string(), "0");
        assert_eq!(UBig::from(12345u64).to_string(), "12345");
        let big = UBig::from(u128::MAX);
        assert_eq!(big.to_string(), u128::MAX.to_string());
    }

    #[test]
    fn to_f64_approximates() {
        let x = UBig::from(1u128 << 90);
        let expect = (1u128 << 90) as f64;
        assert!((x.to_f64() - expect).abs() / expect < 1e-15);
    }

    #[test]
    fn ordering_is_numeric() {
        let a = UBig::from(u64::MAX);
        let b = a.add(&UBig::one());
        assert!(b > a);
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
