//! Residue number system (RNS) bases.
//!
//! CKKS ciphertext coefficients live modulo a huge product
//! `Q = q_0·q_1·…·q_L`; RNS decomposes every coefficient into one small
//! residue per prime (paper §II-A), so all arithmetic stays in 64-bit
//! lanes. This module provides the basis bookkeeping: CRT reconstruction,
//! centered lifting for the CKKS decoder, and the per-prime gadget
//! constants used by RNS keyswitching.

use crate::bigint::{
    words_cmp, words_mul_add, words_rsub_assign, words_sub_assign, words_to_f64, UBig,
};
use crate::modular::Modulus;
use crate::MathError;
use std::cmp::Ordering;

/// An RNS basis: pairwise co-prime moduli with precomputed CRT constants.
///
/// # Example
///
/// ```
/// use uvpu_math::rns::RnsBasis;
///
/// # fn main() -> Result<(), uvpu_math::MathError> {
/// let basis = RnsBasis::new(vec![97, 193, 257])?;
/// let x = 1_234_567u64;
/// let residues = basis.decompose_u64(x);
/// assert_eq!(basis.reconstruct(&residues).to_string(), x.to_string());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    /// `Q = Π q_i`.
    product: UBig,
    /// `Q_i = Q / q_i`.
    punctured: Vec<UBig>,
    /// `Q_i mod q_j` for the fast-base-conversion style sums.
    punctured_mod: Vec<Vec<u64>>,
    /// `Q̃_i = Q_i^{-1} mod q_i`.
    punctured_inv: Vec<u64>,
    /// `Q` as fixed-width limbs, one limb wider than `Q` needs so that the
    /// CRT sum `Σ Q_i·c_i < len·Q` fits without growing.
    product_words: Vec<u64>,
    /// `⌊Q/2⌋` at the same width.
    half_words: Vec<u64>,
    /// Every `Q_i` at the same width, concatenated.
    punctured_words: Vec<u64>,
}

impl RnsBasis {
    /// Builds a basis from raw modulus values.
    ///
    /// # Errors
    ///
    /// - [`MathError::InvalidBasis`] if empty or the moduli share factors.
    /// - [`MathError::ModulusOutOfRange`] for out-of-range moduli.
    pub fn new(values: Vec<u64>) -> Result<Self, MathError> {
        if values.is_empty() {
            return Err(MathError::InvalidBasis("basis must be non-empty"));
        }
        for (i, &a) in values.iter().enumerate() {
            for &b in &values[i + 1..] {
                if crate::util::gcd(a, b) != 1 {
                    return Err(MathError::InvalidBasis("moduli must be pairwise co-prime"));
                }
            }
        }
        let moduli: Vec<Modulus> = values
            .iter()
            .map(|&v| Modulus::new(v))
            .collect::<Result<_, _>>()?;

        let mut product = UBig::one();
        for &v in &values {
            product = product.mul_u64(v);
        }
        let punctured: Vec<UBig> = values.iter().map(|&v| product.div_rem_u64(v).0).collect();
        let punctured_mod: Vec<Vec<u64>> = punctured
            .iter()
            .map(|qi| values.iter().map(|&qj| qi.rem_u64(qj)).collect())
            .collect();
        let punctured_inv: Vec<u64> = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| m.inv(punctured_mod[i][i]))
            .collect::<Result<_, _>>()?;
        let width = product.bits().div_ceil(64) as usize + 1;
        let product_words = product.to_words(width);
        let half_words = product.div_rem_u64(2).0.to_words(width);
        let punctured_words = punctured.iter().flat_map(|p| p.to_words(width)).collect();
        Ok(Self {
            moduli,
            product,
            punctured,
            punctured_mod,
            punctured_inv,
            product_words,
            half_words,
            punctured_words,
        })
    }

    /// Number of primes in the basis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The moduli.
    #[must_use]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The product `Q` of all moduli.
    #[must_use]
    pub fn product(&self) -> &UBig {
        &self.product
    }

    /// The punctured product `Q_i = Q / q_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn punctured_product(&self, i: usize) -> &UBig {
        &self.punctured[i]
    }

    /// `Q_i mod q_j` — the cross terms used by base conversion and the
    /// RNS keyswitch gadget.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn punctured_mod(&self, i: usize, j: usize) -> u64 {
        self.punctured_mod[i][j]
    }

    /// `Q̃_i = (Q/q_i)^{-1} mod q_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn punctured_inv(&self, i: usize) -> u64 {
        self.punctured_inv[i]
    }

    /// Decomposes a `u64` into its residues.
    #[must_use]
    pub fn decompose_u64(&self, x: u64) -> Vec<u64> {
        self.moduli.iter().map(|m| m.reduce_u64(x)).collect()
    }

    /// Decomposes a signed integer into residues (centered lifting).
    #[must_use]
    pub fn decompose_i64(&self, x: i64) -> Vec<u64> {
        self.moduli.iter().map(|m| m.from_i64(x)).collect()
    }

    /// CRT reconstruction: the unique `x ∈ [0, Q)` with `x ≡ residues[i]
    /// (mod q_i)`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    #[must_use]
    pub fn reconstruct(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.len());
        let mut acc = UBig::zero();
        for (i, (&x, m)) in residues.iter().zip(&self.moduli).enumerate() {
            let coeff = m.mul(m.reduce_u64(x), self.punctured_inv[i]);
            acc = acc.add(&self.punctured[i].mul_u64(coeff));
        }
        acc.rem_by_subtraction(&self.product)
    }

    /// CRT reconstruction to a **centered** `f64`: the representative in
    /// `(−Q/2, Q/2]` as a float. This is what the CKKS decoder needs.
    ///
    /// Works in place on fixed-width limbs precomputed by [`Self::new`];
    /// `scratch` is resized on first use and then reused, so decoding a
    /// whole polynomial through one scratch buffer allocates nothing per
    /// coefficient. The result is bit-identical to centering
    /// [`Self::reconstruct`] and converting with [`UBig::to_f64`].
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    #[must_use]
    pub fn reconstruct_centered_f64(&self, residues: &[u64], scratch: &mut Vec<u64>) -> f64 {
        assert_eq!(residues.len(), self.len());
        let width = self.product_words.len();
        scratch.clear();
        scratch.resize(width, 0);
        let x = scratch.as_mut_slice();
        for (i, ((&r, m), q_i)) in residues
            .iter()
            .zip(&self.moduli)
            .zip(self.punctured_words.chunks_exact(width))
            .enumerate()
        {
            words_mul_add(x, q_i, m.mul(m.reduce_u64(r), self.punctured_inv[i]));
        }
        // The sum is below len·Q: at most len − 1 subtractions.
        while words_cmp(x, &self.product_words) != Ordering::Less {
            words_sub_assign(x, &self.product_words);
        }
        if words_cmp(x, &self.half_words) == Ordering::Greater {
            words_rsub_assign(x, &self.product_words);
            -words_to_f64(x)
        } else {
            words_to_f64(x)
        }
    }

    /// Drops the last modulus, returning the shortened basis — the CKKS
    /// rescale step's bookkeeping.
    ///
    /// # Errors
    ///
    /// [`MathError::InvalidBasis`] if only one modulus remains.
    pub fn drop_last(&self) -> Result<Self, MathError> {
        if self.len() <= 1 {
            return Err(MathError::InvalidBasis("cannot drop the last modulus"));
        }
        let values: Vec<u64> = self.moduli[..self.len() - 1]
            .iter()
            .map(Modulus::value)
            .collect();
        Self::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::ntt_prime_chain;

    #[test]
    fn rejects_bad_bases() {
        assert!(RnsBasis::new(vec![]).is_err());
        assert!(RnsBasis::new(vec![6, 9]).is_err());
        assert!(RnsBasis::new(vec![97, 97]).is_err());
        assert!(RnsBasis::new(vec![97]).is_ok());
    }

    #[test]
    fn reconstruct_round_trips_u64() {
        let basis = RnsBasis::new(vec![97, 193, 257, 12289]).unwrap();
        for x in [0u64, 1, 96, 12345, 0xffff_ffff] {
            let r = basis.decompose_u64(x);
            assert_eq!(basis.reconstruct(&r).to_string(), x.to_string());
        }
    }

    #[test]
    fn reconstruct_large_basis() {
        let primes = ntt_prime_chain(45, 1 << 10, 6).unwrap();
        let basis = RnsBasis::new(primes).unwrap();
        // A value known only through residues of a big product.
        let big = UBig::from(u128::MAX).mul_u64(0xdead_beef);
        let residues: Vec<u64> = basis
            .moduli()
            .iter()
            .map(|m| big.rem_u64(m.value()))
            .collect();
        assert_eq!(basis.reconstruct(&residues), big);
    }

    #[test]
    fn centered_reconstruction_signs() {
        let basis = RnsBasis::new(vec![97, 193]).unwrap();
        let mut scratch = Vec::new();
        let mut centered =
            |x: i64| basis.reconstruct_centered_f64(&basis.decompose_i64(x), &mut scratch);
        assert_eq!(centered(42), 42.0);
        assert_eq!(centered(-42), -42.0);
        assert_eq!(centered(0), 0.0);
        // Near the wrap boundary Q/2 = 9360 (Q = 18721).
        assert_eq!(centered(9360), 9360.0);
        assert_eq!(centered(-9360), -9360.0);
    }

    /// The big-integer path the fixed-width reconstruction replaces:
    /// full CRT, compare with `⌊Q/2⌋`, convert.
    fn centered_via_ubig(basis: &RnsBasis, residues: &[u64]) -> f64 {
        let x = basis.reconstruct(residues);
        let half = basis.product().div_rem_u64(2).0;
        if x > half {
            -(basis.product().sub(&x).to_f64())
        } else {
            x.to_f64()
        }
    }

    #[test]
    fn centered_reconstruction_is_bit_identical_to_ubig_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The CKKS benchmark's chain: ten 40-bit primes for N = 2^13.
        let primes = ntt_prime_chain(40, 1 << 13, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(0x63_7274);
        let mut scratch = Vec::new();
        for level in 0..primes.len() {
            let basis = RnsBasis::new(primes[..=level].to_vec()).unwrap();
            let q = basis.product().clone();
            let half = q.div_rem_u64(2).0;
            let boundaries = [
                UBig::zero(),
                half.clone(),
                half.add(&UBig::one()),
                q.sub(&UBig::one()),
            ];
            let mut cases: Vec<Vec<u64>> = boundaries
                .iter()
                .map(|x| {
                    basis
                        .moduli()
                        .iter()
                        .map(|m| x.rem_u64(m.value()))
                        .collect()
                })
                .collect();
            cases.extend((0..256).map(|_| {
                basis
                    .moduli()
                    .iter()
                    .map(|m| rng.gen_range(0..m.value()))
                    .collect()
            }));
            for residues in &cases {
                let got = basis.reconstruct_centered_f64(residues, &mut scratch);
                let want = centered_via_ubig(&basis, residues);
                assert_eq!(got.to_bits(), want.to_bits(), "level {level}: {residues:?}");
            }
            // The boundaries land where the centering says they must.
            assert_eq!(basis.reconstruct_centered_f64(&cases[0], &mut scratch), 0.0);
            assert!(basis.reconstruct_centered_f64(&cases[1], &mut scratch) > 0.0);
            assert!(basis.reconstruct_centered_f64(&cases[2], &mut scratch) < 0.0);
            assert_eq!(
                basis.reconstruct_centered_f64(&cases[3], &mut scratch),
                -1.0
            );
        }
    }

    #[test]
    fn punctured_identities() {
        let basis = RnsBasis::new(vec![97, 193, 257]).unwrap();
        for i in 0..3 {
            // Q_i · q_i = Q.
            assert_eq!(
                basis
                    .punctured_product(i)
                    .mul_u64(basis.moduli()[i].value()),
                *basis.product()
            );
            // Q_i · Q̃_i ≡ 1 (mod q_i).
            let m = basis.moduli()[i];
            assert_eq!(m.mul(basis.punctured_mod(i, i), basis.punctured_inv(i)), 1);
            // Q_i ≡ 0 (mod q_j) for j ≠ i.
            for j in 0..3 {
                if j != i {
                    assert_eq!(basis.punctured_mod(i, j) % basis.moduli()[j].value(), 0);
                }
            }
        }
    }

    #[test]
    fn drop_last_shrinks() {
        let basis = RnsBasis::new(vec![97, 193, 257]).unwrap();
        let smaller = basis.drop_last().unwrap();
        assert_eq!(smaller.len(), 2);
        assert_eq!(
            smaller
                .moduli()
                .iter()
                .map(Modulus::value)
                .collect::<Vec<_>>(),
            vec![97, 193]
        );
        let tiny = smaller.drop_last().unwrap();
        assert!(tiny.drop_last().is_err());
    }
}

/// Fast base conversion between RNS bases (BEHZ-style, paper §III-A's
/// motivation for Barrett lanes).
///
/// Converts residues under a source basis `B = {q_i}` to residues under a
/// disjoint target basis `B' = {p_j}` using only small-modulus arithmetic:
///
/// `conv(x)_j = Σ_i [x_i·Q̃_i]_{q_i} · (Q_i mod p_j)  (mod p_j)`
///
/// The result equals `x + α·Q (mod p_j)` for some overshoot
/// `α ∈ [0, len(B))` — the standard approximate conversion whose
/// correction FHE keyswitching absorbs into noise. Because operands enter
/// in plain (non-Montgomery) representation at every step, Barrett
/// multipliers handle them directly — the paper's §III-A argument.
///
/// # Example
///
/// ```
/// use uvpu_math::rns::{BasisExtender, RnsBasis};
///
/// # fn main() -> Result<(), uvpu_math::MathError> {
/// let from = RnsBasis::new(vec![97, 193])?;
/// let to = RnsBasis::new(vec![257, 12289])?;
/// let ext = BasisExtender::new(&from, &to)?;
/// let out = ext.convert(&from.decompose_u64(1234));
/// // Exact here because 1234 < Q and the α·Q overshoot is 0 or Q:
/// assert!(out[0] == 1234 % 257 || out[0] == (1234 + 97 * 193) % 257);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BasisExtender {
    from: RnsBasis,
    to: RnsBasis,
    /// `q_i_hat_mod_p[i][j] = (Q/q_i) mod p_j`.
    punctured_mod_target: Vec<Vec<u64>>,
    /// `Q mod p_j` (for overshoot correction by callers that track α).
    q_mod_target: Vec<u64>,
}

impl BasisExtender {
    /// Precomputes the conversion constants.
    ///
    /// # Errors
    ///
    /// [`MathError::InvalidBasis`] if the bases share a modulus.
    pub fn new(from: &RnsBasis, to: &RnsBasis) -> Result<Self, MathError> {
        for qi in from.moduli() {
            for pj in to.moduli() {
                if qi.value() == pj.value() {
                    return Err(MathError::InvalidBasis(
                        "source and target bases must be disjoint",
                    ));
                }
            }
        }
        let punctured_mod_target = (0..from.len())
            .map(|i| {
                to.moduli()
                    .iter()
                    .map(|pj| from.punctured_product(i).rem_u64(pj.value()))
                    .collect()
            })
            .collect();
        let q_mod_target = to
            .moduli()
            .iter()
            .map(|pj| from.product().rem_u64(pj.value()))
            .collect();
        Ok(Self {
            from: from.clone(),
            to: to.clone(),
            punctured_mod_target,
            q_mod_target,
        })
    }

    /// `Q mod p_j` — lets callers subtract the `α·Q` overshoot when they
    /// can bound or compute α.
    #[must_use]
    pub fn source_product_mod_target(&self, j: usize) -> u64 {
        self.q_mod_target[j]
    }

    /// Converts one value's residues; output has one residue per target
    /// modulus and equals `x + α·Q (mod p_j)` with `0 ≤ α < len(from)`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the source basis size.
    #[must_use]
    pub fn convert(&self, residues: &[u64]) -> Vec<u64> {
        assert_eq!(residues.len(), self.from.len());
        // y_i = [x_i · Q̃_i]_{q_i}: computed once per source modulus.
        let ys: Vec<u64> = residues
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let m = self.from.moduli()[i];
                m.mul(m.reduce_u64(x), self.from.punctured_inv(i))
            })
            .collect();
        (0..self.to.len())
            .map(|j| {
                let pj = self.to.moduli()[j];
                let mut acc = 0u64;
                for (i, &y) in ys.iter().enumerate() {
                    acc = pj.add(
                        acc,
                        pj.mul(pj.reduce_u64(y), self.punctured_mod_target[i][j]),
                    );
                }
                acc
            })
            .collect()
    }

    /// Converts with exact overshoot removal using CRT (reference-quality,
    /// big-integer path — the hardware uses the approximate form above).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the source basis size.
    #[must_use]
    pub fn convert_exact(&self, residues: &[u64]) -> Vec<u64> {
        let x = self.from.reconstruct(residues);
        self.to
            .moduli()
            .iter()
            .map(|pj| x.rem_u64(pj.value()))
            .collect()
    }
}

#[cfg(test)]
mod extender_tests {
    use super::*;

    fn bases() -> (RnsBasis, RnsBasis) {
        (
            RnsBasis::new(vec![0x0fff_ffff_fffc_0001, 65537, 97]).unwrap(),
            RnsBasis::new(vec![257, 12289, 7681]).unwrap(),
        )
    }

    #[test]
    fn rejects_overlapping_bases() {
        let a = RnsBasis::new(vec![97, 193]).unwrap();
        let b = RnsBasis::new(vec![193, 257]).unwrap();
        assert!(BasisExtender::new(&a, &b).is_err());
    }

    #[test]
    fn approximate_conversion_is_exact_up_to_alpha_q() {
        let (from, to) = bases();
        let ext = BasisExtender::new(&from, &to).unwrap();
        for x in [0u64, 1, 12345, 0xffff_ffff, 0x0fff_ffff_fffb_ffff] {
            let approx = ext.convert(&from.decompose_u64(x));
            let exact = ext.convert_exact(&from.decompose_u64(x));
            for j in 0..to.len() {
                let pj = to.moduli()[j];
                // approx ≡ exact + α·Q (mod p_j) for some 0 ≤ α < 3.
                let q_mod = ext.source_product_mod_target(j);
                let candidates: Vec<u64> = (0..from.len() as u64)
                    .map(|alpha| pj.add(exact[j], pj.mul(pj.reduce_u64(alpha), q_mod)))
                    .collect();
                assert!(
                    candidates.contains(&approx[j]),
                    "x={x} j={j}: {} not among {candidates:?}",
                    approx[j]
                );
            }
        }
    }

    #[test]
    fn zero_converts_exactly_and_alpha_is_bounded() {
        // Only x = 0 guarantees α = 0 (all y_i vanish); for other inputs
        // the overshoot depends on Σ y_i/q_i, NOT on x's magnitude — the
        // property the `approximate_conversion_is_exact_up_to_alpha_q`
        // test pins down.
        let (from, to) = bases();
        let ext = BasisExtender::new(&from, &to).unwrap();
        assert_eq!(
            ext.convert(&from.decompose_u64(0)),
            ext.convert_exact(&from.decompose_u64(0))
        );
    }

    #[test]
    fn conversion_is_additive_mod_target() {
        let (from, to) = bases();
        let ext = BasisExtender::new(&from, &to).unwrap();
        let a = 123_456u64;
        let b = 9_876u64;
        let ca = ext.convert_exact(&from.decompose_u64(a));
        let cb = ext.convert_exact(&from.decompose_u64(b));
        let cab = ext.convert_exact(&from.decompose_u64(a + b));
        for j in 0..to.len() {
            let pj = to.moduli()[j];
            assert_eq!(cab[j], pj.add(ca[j], cb[j]));
        }
    }
}
