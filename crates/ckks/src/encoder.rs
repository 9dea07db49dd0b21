//! The CKKS encoder: packing `N/2` complex numbers into a polynomial via
//! the canonical embedding (paper §II-A's SIMD packing).
//!
//! Slot `j` corresponds to evaluating the message polynomial at
//! `ζ^{5^j mod 2N}` (ζ the primitive complex `2N`-th root); indexing
//! slots along powers of 5 is exactly what makes a ring automorphism
//! `X ↦ X^{5^r}` act as a cyclic rotation of the slots — the `HRot`
//! operation the paper's automorphism hardware accelerates.
//!
//! The same indexing turns the embedding into a butterfly network: the
//! encoder and decoder run the special (inverse) FFT of HEAAN/Lattigo on
//! `N/2` complex points in `O(N log N)`, with twiddles
//! `ζ^{(5^j mod 4·len)·2N/(4·len)}` read from one table of `2N`-th roots.
//! The `N/2` complex outputs of the inverse transform are the message
//! coefficients paired up: `Re` into coefficient `k`, `Im` into `k + N/2`.

use crate::params::CkksContext;
use crate::rns_poly::RnsPoly;
use crate::CkksError;
use uvpu_math::util::bit_reverse_permute;

/// A complex number (self-contained; no external numerics dependency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Creates a complex number.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Complex multiplication.
    ///
    /// Named `mul` (not the `Mul` trait) on purpose: the call sites read
    /// as scheme math, and the type deliberately implements no operator
    /// traits.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    /// Complex addition.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, other: Self) -> Self {
        Self {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    /// Complex subtraction.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn sub(self, other: Self) -> Self {
        Self {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }

    /// Complex conjugate.
    #[must_use]
    pub const fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
}

/// An encoded (or decrypted) message: an RNS polynomial tagged with its
/// scale and level.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    /// The message polynomial (coefficient form).
    pub poly: RnsPoly,
    /// The encoding scale Δ attached to this message.
    pub scale: f64,
}

/// The canonical-embedding encoder for one ring degree.
///
/// # Example
///
/// ```
/// use uvpu_ckks::encoder::{C64, Encoder};
/// use uvpu_ckks::params::{CkksContext, CkksParams};
///
/// # fn main() -> Result<(), uvpu_ckks::CkksError> {
/// let ctx = CkksContext::new(CkksParams::new(1 << 6, 2, 40)?)?;
/// let enc = Encoder::new(&ctx);
/// let values = vec![C64::new(1.5, -0.5); 8];
/// let pt = enc.encode(&ctx, 2, &values)?;
/// let back = enc.decode(&ctx, &pt);
/// assert!((back[0].re - 1.5).abs() < 1e-6);
/// assert!((back[0].im + 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    n: usize,
    /// `rotation_group[j] = 5^j mod 2N` — the slot-to-root exponent map.
    rotation_group: Vec<usize>,
    /// `roots[e] = ζ^e` for `e ∈ [0, 2N)`.
    roots: Vec<C64>,
}

impl Encoder {
    /// Builds the encoder for the context's ring degree.
    #[must_use]
    pub fn new(ctx: &CkksContext) -> Self {
        Self::with_degree(ctx.params().n())
    }

    fn with_degree(n: usize) -> Self {
        let two_n = 2 * n;
        let roots: Vec<C64> = (0..two_n)
            .map(|e| {
                let theta = std::f64::consts::PI * e as f64 / n as f64;
                C64::new(theta.cos(), theta.sin())
            })
            .collect();
        let mut rotation_group = Vec::with_capacity(n / 2);
        let mut g = 1usize;
        for _ in 0..n / 2 {
            rotation_group.push(g);
            g = g * 5 % two_n;
        }
        Self {
            n,
            rotation_group,
            roots,
        }
    }

    /// Number of complex slots (`N/2`).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.n / 2
    }

    /// Encodes up to `N/2` complex values at the given level with the
    /// context's scale Δ.
    ///
    /// # Errors
    ///
    /// - [`CkksError::TooManySlots`] when more values than slots are given.
    /// - [`CkksError::NonFiniteSlot`] for a NaN or infinite slot value.
    /// - [`CkksError::CoefficientOverflow`] when a scaled coefficient does
    ///   not fit in `i64`.
    pub fn encode(
        &self,
        ctx: &CkksContext,
        level: usize,
        values: &[C64],
    ) -> Result<Plaintext, CkksError> {
        self.encode_at_scale(ctx, level, values, ctx.params().scale())
    }

    /// Encodes with an explicit scale (used to match a ciphertext's scale
    /// for plaintext multiplication).
    ///
    /// # Errors
    ///
    /// As [`Self::encode`].
    pub fn encode_at_scale(
        &self,
        ctx: &CkksContext,
        level: usize,
        values: &[C64],
        scale: f64,
    ) -> Result<Plaintext, CkksError> {
        let coeffs = self.slots_to_coeffs(values, scale)?;
        Ok(Plaintext {
            poly: RnsPoly::from_signed(ctx, level, &coeffs)?,
            scale,
        })
    }

    /// Decodes a plaintext back into its complex slot values.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext is in evaluation form.
    #[must_use]
    pub fn decode(&self, ctx: &CkksContext, pt: &Plaintext) -> Vec<C64> {
        self.coeffs_to_slots(&pt.poly.coefficients_centered_f64(ctx), pt.scale)
    }

    /// The integer message coefficients `round(Δ·m)` whose canonical
    /// embedding is `values` (zero-padded to `N/2` slots).
    fn slots_to_coeffs(&self, values: &[C64], scale: f64) -> Result<Vec<i64>, CkksError> {
        let slots = self.slot_count();
        if values.len() > slots {
            return Err(CkksError::TooManySlots {
                provided: values.len(),
                capacity: slots,
            });
        }
        if let Some(slot) = values
            .iter()
            .position(|z| !(z.re.is_finite() && z.im.is_finite()))
        {
            return Err(CkksError::NonFiniteSlot { slot });
        }
        let mut vals = values.to_vec();
        vals.resize(slots, C64::default());
        self.fft_special_inv(&mut vals);
        let mut coeffs = vec![0i64; self.n];
        let (re, im) = coeffs.split_at_mut(slots);
        for (k, z) in vals.iter().enumerate() {
            re[k] = scaled_coefficient(z.re, scale, k)?;
            im[k] = scaled_coefficient(z.im, scale, k + slots)?;
        }
        Ok(coeffs)
    }

    /// The slot values of centered coefficients carrying `scale`.
    fn coeffs_to_slots(&self, coeffs: &[f64], scale: f64) -> Vec<C64> {
        let slots = self.slot_count();
        let mut vals: Vec<C64> = (0..slots)
            .map(|k| C64::new(coeffs[k] / scale, coeffs[k + slots] / scale))
            .collect();
        self.fft_special(&mut vals);
        vals
    }

    /// Evaluates `Σ_k vals[k]·ζ^{5^j·k}` for every slot `j`, in place.
    /// (`lenq` is a power of two, so `& (lenq − 1)` is `mod lenq`.)
    fn fft_special(&self, vals: &mut [C64]) {
        bit_reverse_permute(vals);
        let mut len = 2;
        while len <= vals.len() {
            let lenq = 4 * len;
            let gap = 2 * self.n / lenq;
            for block in vals.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(len / 2);
                for (j, (u, v)) in lo.iter_mut().zip(hi).enumerate() {
                    let t = v.mul(self.roots[(self.rotation_group[j] & (lenq - 1)) * gap]);
                    (*u, *v) = (u.add(t), u.sub(t));
                }
            }
            len *= 2;
        }
    }

    /// The inverse of [`Self::fft_special`], in place.
    fn fft_special_inv(&self, vals: &mut [C64]) {
        let size = vals.len();
        let mut len = size;
        while len >= 2 {
            let lenq = 4 * len;
            let gap = 2 * self.n / lenq;
            for block in vals.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(len / 2);
                for (j, (u, v)) in lo.iter_mut().zip(hi).enumerate() {
                    let w = self.roots[(lenq - (self.rotation_group[j] & (lenq - 1))) * gap];
                    (*u, *v) = (u.add(*v), u.sub(*v).mul(w));
                }
            }
            len /= 2;
        }
        bit_reverse_permute(vals);
        for z in vals.iter_mut() {
            z.re /= size as f64;
            z.im /= size as f64;
        }
    }
}

/// `round(x·scale)` as message coefficient `index`, refused when it does
/// not fit in `i64` (a bare `as` cast would saturate, and map NaN to 0).
fn scaled_coefficient(x: f64, scale: f64, index: usize) -> Result<i64, CkksError> {
    // −2^63 is exact in f64 and 2^63 is the first value past i64::MAX.
    let bound = -(i64::MIN as f64);
    let value = (x * scale).round();
    if (-bound..bound).contains(&value) {
        Ok(value as i64)
    } else {
        Err(CkksError::CoefficientOverflow { index, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (CkksContext, Encoder) {
        let ctx = CkksContext::new(CkksParams::new(1 << 7, 2, 40).unwrap()).unwrap();
        let enc = Encoder::new(&ctx);
        (ctx, enc)
    }

    /// The O(N²) canonical embedding the special FFTs replace, kept as
    /// the oracle they are checked against.
    impl Encoder {
        fn oracle_encode(&self, values: &[C64], scale: f64) -> Vec<i64> {
            let two_n = 2 * self.n;
            // m_k = (2Δ/N)·Re( Σ_j z_j · ζ^{−r_j·k} ), exploiting conjugate
            // symmetry of the other N/2 embedding slots.
            (0..self.n)
                .map(|k| {
                    let mut acc = C64::default();
                    for (j, &z) in values.iter().enumerate() {
                        let e = (two_n - self.rotation_group[j] * k % two_n) % two_n;
                        acc = acc.add(z.mul(self.roots[e]));
                    }
                    let real = 2.0 * acc.re / self.n as f64;
                    (real * scale).round() as i64
                })
                .collect()
        }

        fn oracle_decode(&self, coeffs: &[f64], scale: f64) -> Vec<C64> {
            let two_n = 2 * self.n;
            (0..self.slot_count())
                .map(|j| {
                    let r = self.rotation_group[j];
                    let mut acc = C64::default();
                    for (k, &c) in coeffs.iter().enumerate() {
                        acc = acc.add(self.roots[r * k % two_n].mul(C64::from(c / scale)));
                    }
                    acc
                })
                .collect()
        }
    }

    /// Encodes `len` seeded slot values at `N = 2^log_n` and checks both
    /// transforms against the oracle: coefficients within ±1, decoded
    /// slots within 1e-9 of the largest oracle slot.
    fn check_against_oracle(log_n: u32, len: usize, seed: u64) {
        let n = 1usize << log_n;
        let enc = Encoder::with_degree(n);
        let scale = 40f64.exp2();
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<C64> = (0..len)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let oracle = enc.oracle_encode(&values, scale);
        let fft = enc.slots_to_coeffs(&values, scale).unwrap();
        for (k, (a, b)) in fft.iter().zip(&oracle).enumerate() {
            assert!(
                (a - b).abs() <= 1,
                "N={n} len={len} coefficient {k}: {a} vs {b}"
            );
        }
        let coeffs: Vec<f64> = oracle.iter().map(|&c| c as f64).collect();
        let want = enc.oracle_decode(&coeffs, scale);
        let got = enc.coeffs_to_slots(&coeffs, scale);
        let norm = want.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            let err = g.sub(*w).abs();
            assert!(
                err <= 1e-9 * norm,
                "N={n} len={len} slot {j}: {g:?} vs {w:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn special_fft_matches_the_dft_oracle(
            log_n in 4u32..=13,
            full in any::<bool>(),
            len_seed in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let slots = 1usize << (log_n - 1);
            check_against_oracle(log_n, if full { slots } else { len_seed % slots }, seed);
        }
    }

    #[test]
    fn special_fft_matches_the_dft_oracle_at_n_2_13() {
        check_against_oracle(13, 1 << 12, 1);
        check_against_oracle(13, 1000, 2);
    }

    #[test]
    fn c64_algebra() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        let p = a.mul(b);
        assert!((p.re - 5.0).abs() < 1e-12);
        assert!((p.im - 5.0).abs() < 1e-12);
        assert_eq!(a.conj().im, -2.0);
        assert!((C64::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn encode_decode_round_trip() {
        let (ctx, enc) = setup();
        let values: Vec<C64> = (0..enc.slot_count())
            .map(|j| C64::new(j as f64 * 0.25 - 3.0, (j as f64).sin()))
            .collect();
        let pt = enc.encode(&ctx, 2, &values).unwrap();
        let back = enc.decode(&ctx, &pt);
        for (z, w) in values.iter().zip(&back) {
            assert!((z.re - w.re).abs() < 1e-6, "{} vs {}", z.re, w.re);
            assert!((z.im - w.im).abs() < 1e-6);
        }
    }

    #[test]
    fn partial_slot_vectors_pad_with_zeros() {
        let (ctx, enc) = setup();
        let values = vec![C64::from(7.0); 3];
        let pt = enc.encode(&ctx, 1, &values).unwrap();
        let back = enc.decode(&ctx, &pt);
        assert!((back[0].re - 7.0).abs() < 1e-6);
        assert!(back[5].abs() < 1e-6);
    }

    #[test]
    fn too_many_slots_is_rejected() {
        let (ctx, enc) = setup();
        let values = vec![C64::default(); enc.slot_count() + 1];
        assert!(matches!(
            enc.encode(&ctx, 1, &values),
            Err(CkksError::TooManySlots { .. })
        ));
    }

    #[test]
    fn encoding_is_additive() {
        let (ctx, enc) = setup();
        let a: Vec<C64> = (0..8).map(|j| C64::new(j as f64, 0.5)).collect();
        let b: Vec<C64> = (0..8).map(|j| C64::new(1.0, -j as f64)).collect();
        let pa = enc.encode(&ctx, 1, &a).unwrap();
        let pb = enc.encode(&ctx, 1, &b).unwrap();
        let sum = Plaintext {
            poly: pa.poly.add(&pb.poly).unwrap(),
            scale: pa.scale,
        };
        let back = enc.decode(&ctx, &sum);
        for (j, w) in back.iter().take(8).enumerate() {
            assert!((w.re - (a[j].re + b[j].re)).abs() < 1e-5);
            assert!((w.im - (a[j].im + b[j].im)).abs() < 1e-5);
        }
    }

    #[test]
    fn out_of_range_values_are_refused() {
        let (ctx, enc) = setup();
        // At Δ = 2^40 a bare cast would saturate 1e10 and decode garbage.
        for z in [C64::from(1e10), C64::new(0.0, -1e10)] {
            assert!(matches!(
                enc.encode(&ctx, 1, &[z]),
                Err(CkksError::CoefficientOverflow { .. })
            ));
        }
        assert!(matches!(
            enc.encode_at_scale(&ctx, 1, &[C64::from(1.0)], 1e300),
            Err(CkksError::CoefficientOverflow { .. })
        ));
        let pt = enc.encode(&ctx, 1, &[C64::from(1e6)]).unwrap();
        assert!((enc.decode(&ctx, &pt)[0].re - 1e6).abs() < 1e-3);
    }

    #[test]
    fn non_finite_values_are_refused() {
        let (ctx, enc) = setup();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let values = [C64::from(1.0), C64::from(2.0), C64::new(0.0, bad)];
            assert_eq!(
                enc.encode(&ctx, 1, &values),
                Err(CkksError::NonFiniteSlot { slot: 2 })
            );
        }
        assert!(matches!(
            enc.encode_at_scale(&ctx, 1, &[C64::from(1.0)], f64::NAN),
            Err(CkksError::CoefficientOverflow { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn decoding_an_evaluation_form_plaintext_panics() {
        let (ctx, enc) = setup();
        let pt = enc.encode(&ctx, 1, &[C64::from(1.0)]).unwrap();
        let eval_pt = Plaintext {
            poly: pt.poly.to_evaluation(&ctx),
            scale: pt.scale,
        };
        let _ = enc.decode(&ctx, &eval_pt);
    }

    #[test]
    fn galois_five_rotates_slots() {
        // The whole point of the rotation-group indexing: X ↦ X^5 shifts
        // the slot vector by one position.
        for log_n in [7, 13] {
            let ctx = CkksContext::new(CkksParams::new(1 << log_n, 1, 40).unwrap()).unwrap();
            let enc = Encoder::new(&ctx);
            let values: Vec<C64> = (0..enc.slot_count()).map(|j| C64::from(j as f64)).collect();
            let pt = enc.encode(&ctx, 1, &values).unwrap();
            let rotated = Plaintext {
                poly: pt.poly.galois(5).unwrap(),
                scale: pt.scale,
            };
            let back = enc.decode(&ctx, &rotated);
            let slots = enc.slot_count();
            for (j, w) in back.iter().take(slots).enumerate() {
                let expect = ((j + 1) % slots) as f64;
                assert!(
                    (w.re - expect).abs() < 1e-5,
                    "N=2^{log_n} slot {j}: {} vs {expect}",
                    w.re
                );
            }
        }
    }
}
