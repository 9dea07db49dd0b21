//! The homomorphic evaluator: encryption, decryption, and every operation
//! the paper's VPU accelerates — HAdd, HMult + relinearization + rescale,
//! and HRot via automorphism + keyswitch (paper §II-A).

use crate::ciphertext::Ciphertext;
use crate::encoder::Plaintext;
use crate::keys::{GaloisKeys, KeySwitchKey, PublicKey, SecretKey};
use crate::params::CkksContext;
use crate::rns_poly::RnsPoly;
use crate::CkksError;
use rand::Rng;
use uvpu_core::trace::{scheme_span, scheme_span_lazy};

/// Relative scale tolerance for additions; the prime chain is sampled
/// just below `2^scale_bits`, so rescaled operand scales agree to ~1e−5.
const SCALE_TOLERANCE: f64 = 1e-3;

/// The homomorphic evaluator over one context.
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use uvpu_ckks::encoder::{C64, Encoder};
/// use uvpu_ckks::keys::KeyGenerator;
/// use uvpu_ckks::ops::Evaluator;
/// use uvpu_ckks::params::{CkksContext, CkksParams};
///
/// # fn main() -> Result<(), uvpu_ckks::CkksError> {
/// let ctx = CkksContext::new(CkksParams::new(1 << 6, 2, 40)?)?;
/// let encoder = Encoder::new(&ctx);
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(8));
/// let sk = kg.secret_key();
/// let pk = kg.public_key(&sk)?;
/// let eval = Evaluator::new(&ctx);
///
/// let pt = encoder.encode(&ctx, ctx.params().levels(), &[C64::from(2.5)])?;
/// let ct = eval.encrypt(&pk, &pt, &mut rng)?;
/// let dec = eval.decrypt(&sk, &ct)?;
/// let out = encoder.decode(&ctx, &dec);
/// assert!((out[0].re - 2.5).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    ctx: &'a CkksContext,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over the context.
    #[must_use]
    pub const fn new(ctx: &'a CkksContext) -> Self {
        Self { ctx }
    }

    /// Public-key encryption at the plaintext's level.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn encrypt<R: Rng>(
        &self,
        pk: &PublicKey,
        pt: &Plaintext,
        rng: &mut R,
    ) -> Result<Ciphertext, CkksError> {
        let _span = scheme_span("ckks.encrypt");
        let ctx = self.ctx;
        let level = pt.poly.level();
        let v = RnsPoly::sample_ternary(ctx, level, rng)?.to_evaluation(ctx);
        let e0 = RnsPoly::sample_error(ctx, level, rng)?;
        let e1 = RnsPoly::sample_error(ctx, level, rng)?;
        // No-ops for a key from `KeyGenerator::public_key`, which is
        // already in evaluation form.
        let b = pk.b.truncate_level(level)?.to_evaluation(ctx);
        let a = pk.a.truncate_level(level)?.to_evaluation(ctx);
        let mut c0 = v.mul(&b)?.to_coefficient(ctx);
        c0.add_assign(&e0)?;
        c0.add_assign(&pt.poly)?;
        let mut c1 = v.mul(&a)?.to_coefficient(ctx);
        c1.add_assign(&e1)?;
        Ok(Ciphertext {
            parts: vec![c0, c1],
            scale: pt.scale,
        })
    }

    /// Secret-key encryption (fresh uniform mask; lower noise than
    /// public-key encryption).
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn encrypt_symmetric<R: Rng>(
        &self,
        sk: &SecretKey,
        pt: &Plaintext,
        rng: &mut R,
    ) -> Result<Ciphertext, CkksError> {
        let ctx = self.ctx;
        let level = pt.poly.level();
        let a = RnsPoly::sample_uniform(ctx, level, rng)?;
        let e = RnsPoly::sample_error(ctx, level, rng)?;
        let s = sk.at_level(ctx, level)?.to_evaluation(ctx);
        let mut c0 = e;
        c0.sub_assign(&a.clone().to_evaluation(ctx).mul(&s)?.to_coefficient(ctx))?;
        c0.add_assign(&pt.poly)?;
        Ok(Ciphertext {
            parts: vec![c0, a],
            scale: pt.scale,
        })
    }

    /// Decryption: `Σ_k parts[k]·s^k`, returned as a plaintext carrying
    /// the ciphertext's scale.
    ///
    /// The `k ≥ 1` terms are summed in evaluation form and brought back
    /// with one inverse NTT; `parts[0]` is added in coefficient form, so
    /// it is never transformed.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn decrypt(&self, sk: &SecretKey, ct: &Ciphertext) -> Result<Plaintext, CkksError> {
        let ctx = self.ctx;
        let level = ct.level();
        let s = sk.at_level(ctx, level)?.to_evaluation(ctx);
        let mut poly = ct.parts[0].clone();
        if let Some(c1) = ct.parts.get(1) {
            let mut acc = c1.clone().to_evaluation(ctx).mul(&s)?;
            let mut s_pow = s.clone();
            for part in &ct.parts[2..] {
                s_pow = s_pow.mul(&s)?;
                acc.add_assign(&part.clone().to_evaluation(ctx).mul(&s_pow)?)?;
            }
            poly.add_assign(&acc.to_coefficient(ctx))?;
        }
        Ok(Plaintext {
            poly,
            scale: ct.scale,
        })
    }

    fn align(&self, a: &Ciphertext, b: &Ciphertext) -> Result<(Ciphertext, Ciphertext), CkksError> {
        let level = a.level().min(b.level());
        let shrink = |ct: &Ciphertext| -> Result<Ciphertext, CkksError> {
            Ok(Ciphertext {
                parts: ct
                    .parts
                    .iter()
                    .map(|p| p.truncate_level(level))
                    .collect::<Result<_, _>>()?,
                scale: ct.scale,
            })
        };
        let (a, b) = (shrink(a)?, shrink(b)?);
        let rel = (a.scale - b.scale).abs() / a.scale.max(b.scale);
        if rel > SCALE_TOLERANCE {
            return Err(CkksError::ScaleMismatch {
                left: a.scale,
                right: b.scale,
            });
        }
        Ok((a, b))
    }

    /// Homomorphic addition (HAdd). Operands are aligned to the lower
    /// level; scales must agree to the chain tolerance.
    ///
    /// # Errors
    ///
    /// [`CkksError::ScaleMismatch`] or substrate errors.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        let _span = scheme_span("ckks.add");
        let (a, b) = self.align(a, b)?;
        let size = a.size().max(b.size());
        let level = a.level();
        let zero = RnsPoly::zero(self.ctx, level)?;
        let mut parts = Vec::with_capacity(size);
        for k in 0..size {
            let x = a.parts.get(k).unwrap_or(&zero);
            let y = b.parts.get(k).unwrap_or(&zero);
            parts.push(x.add(y)?);
        }
        Ok(Ciphertext {
            parts,
            scale: a.scale.max(b.scale),
        })
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// [`CkksError::ScaleMismatch`] or substrate errors.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        let (a, b) = self.align(a, b)?;
        let size = a.size().max(b.size());
        let level = a.level();
        let zero = RnsPoly::zero(self.ctx, level)?;
        let mut parts = Vec::with_capacity(size);
        for k in 0..size {
            let x = a.parts.get(k).unwrap_or(&zero);
            let y = b.parts.get(k).unwrap_or(&zero);
            parts.push(x.sub(y)?);
        }
        Ok(Ciphertext {
            parts,
            scale: a.scale.max(b.scale),
        })
    }

    /// Adds a plaintext to a ciphertext.
    ///
    /// # Errors
    ///
    /// [`CkksError::ScaleMismatch`] or substrate errors.
    pub fn add_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        let level = ct.level().min(pt.poly.level());
        let rel = (ct.scale - pt.scale).abs() / ct.scale.max(pt.scale);
        if rel > SCALE_TOLERANCE {
            return Err(CkksError::ScaleMismatch {
                left: ct.scale,
                right: pt.scale,
            });
        }
        let mut parts: Vec<RnsPoly> = ct
            .parts
            .iter()
            .map(|p| p.truncate_level(level))
            .collect::<Result<_, _>>()?;
        parts[0].add_assign(&pt.poly.truncate_level(level)?)?;
        Ok(Ciphertext {
            parts,
            scale: ct.scale,
        })
    }

    /// Multiplies a ciphertext by a plaintext; the scales multiply.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn mul_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        let ctx = self.ctx;
        let level = ct.level().min(pt.poly.level());
        let p_eval = pt.poly.truncate_level(level)?.to_evaluation(ctx);
        let parts = ct
            .parts
            .iter()
            .map(|c| {
                Ok(c.truncate_level(level)?
                    .to_evaluation(ctx)
                    .mul(&p_eval)?
                    .to_coefficient(ctx))
            })
            .collect::<Result<_, CkksError>>()?;
        Ok(Ciphertext {
            parts,
            scale: ct.scale * pt.scale,
        })
    }

    /// Homomorphic multiplication (HMult) with immediate relinearization:
    /// the tensor product runs in the NTT domain, and the quadratic part
    /// is keyswitched back to a 2-part ciphertext with `rlk`.
    ///
    /// The caller usually follows with [`Self::rescale`].
    ///
    /// # Errors
    ///
    /// [`CkksError::ScaleMismatch`] or substrate errors.
    pub fn mul(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &KeySwitchKey,
    ) -> Result<Ciphertext, CkksError> {
        if a.size() != 2 || b.size() != 2 {
            return Err(CkksError::InvalidParameters(
                "multiplication expects relinearized (2-part) ciphertexts".into(),
            ));
        }
        let _span = scheme_span("ckks.mul");
        let ctx = self.ctx;
        let level = a.level().min(b.level());
        let a0 = a.parts[0].truncate_level(level)?.to_evaluation(ctx);
        let a1 = a.parts[1].truncate_level(level)?.to_evaluation(ctx);
        let b0 = b.parts[0].truncate_level(level)?.to_evaluation(ctx);
        let b1 = b.parts[1].truncate_level(level)?.to_evaluation(ctx);
        let d0 = a0.mul(&b0)?;
        let mut d1 = a0.mul(&b1)?;
        d1.add_assign(&a1.mul(&b0)?)?;
        let d2 = a1.mul(&b1)?.to_coefficient(ctx);
        // Relinearize d2·s² into (ks0, ks1).
        let (ks0, ks1) = self.keyswitch(&d2, rlk)?;
        let mut c0 = d0.to_coefficient(ctx);
        c0.add_assign(&ks0)?;
        let mut c1 = d1.to_coefficient(ctx);
        c1.add_assign(&ks1)?;
        Ok(Ciphertext {
            parts: vec![c0, c1],
            scale: a.scale * b.scale,
        })
    }

    /// Hybrid keyswitch: `d` is decomposed into per-prime centered
    /// digits, each digit multiplies the extended-basis key pair, and the
    /// accumulated result is divided by the special prime `P` (mod-down)
    /// — shrinking the digit noise by `P`.
    fn keyswitch(&self, d: &RnsPoly, key: &KeySwitchKey) -> Result<(RnsPoly, RnsPoly), CkksError> {
        let level = d.level();
        let digits: Vec<Vec<i64>> = (0..=level).map(|j| d.residue_centered(j)).collect();
        self.keyswitch_digits(&digits, key, level)
    }

    /// The digit-product half of the hybrid keyswitch, taking
    /// already-decomposed centered digits — shared by the plain path and
    /// the hoisted-rotation path (where digits are reused across keys).
    fn keyswitch_digits(
        &self,
        digits: &[Vec<i64>],
        key: &KeySwitchKey,
        level: usize,
    ) -> Result<(RnsPoly, RnsPoly), CkksError> {
        let _span = scheme_span("ckks.keyswitch");
        let ctx = self.ctx;
        let n = ctx.params().n();
        // Working basis: chain primes 0..=level plus the special prime;
        // `key_idx` maps into the key's extended-basis residue order.
        let special_key_idx = ctx.params().levels() + 1;
        let mut basis: Vec<(
            uvpu_math::modular::Modulus,
            &uvpu_math::ntt::NttTable,
            usize,
        )> = (0..=level)
            .map(|i| (ctx.modulus(i), ctx.ntt(i), i))
            .collect();
        basis.push((ctx.special_modulus(), ctx.special_ntt(), special_key_idx));

        // Each basis prime accumulates independently; the digit loop `j`
        // stays sequential *inside* each prime, so the per-prime
        // accumulation order (and thus every rounding-free modular sum)
        // is identical to the sequential path for any thread count.
        //
        // The digit product is the fused kernel pipeline: one pooled
        // scratch buffer holds the reduced digit, one lazy forward NTT is
        // shared by both key halves, and the products accumulate directly
        // into the output buffers — no per-digit Poly materializations.
        let acc_pairs = uvpu_par::par_map_indexed(basis.len(), |idx| {
            let (m, table, key_idx) = basis[idx];
            let mut a0 = uvpu_math::pool::take_zeroed(n);
            let mut a1 = uvpu_math::pool::take_zeroed(n);
            let mut digit_scratch = uvpu_math::pool::take_scratch(n);
            for (j, digit) in digits.iter().enumerate() {
                for (o, &c) in digit_scratch.iter_mut().zip(digit.iter()) {
                    *o = m.from_i64(c);
                }
                uvpu_math::kernel::ntt_accumulate_pair(
                    table,
                    &digit_scratch,
                    key.parts[j].0[key_idx].coeffs(),
                    key.parts[j].1[key_idx].coeffs(),
                    &mut a0,
                    &mut a1,
                );
            }
            uvpu_math::pool::recycle(digit_scratch);
            let a0 =
                uvpu_math::poly::Poly::from_reduced_evaluations(a0, m).map_err(CkksError::Math)?;
            let a1 =
                uvpu_math::poly::Poly::from_reduced_evaluations(a1, m).map_err(CkksError::Math)?;
            Ok::<_, CkksError>((a0, a1))
        });
        let mut acc0 = Vec::with_capacity(basis.len());
        let mut acc1 = Vec::with_capacity(basis.len());
        for pair in acc_pairs {
            let (a0, a1) = pair?;
            acc0.push(a0);
            acc1.push(a1);
        }
        let down = |acc: Vec<uvpu_math::poly::Poly>| -> Result<RnsPoly, CkksError> {
            let coeff: Vec<uvpu_math::poly::Poly> =
                uvpu_par::par_map_vec(acc, |idx, p| p.to_coefficient(basis[idx].1));
            self.mod_down(coeff, level)
        };
        Ok((down(acc0)?, down(acc1)?))
    }

    /// Divides a `[q_0 … q_ℓ, P]` residue stack by `P` with rounding,
    /// returning the level-`ℓ` result.
    fn mod_down(
        &self,
        mut polys: Vec<uvpu_math::poly::Poly>,
        level: usize,
    ) -> Result<RnsPoly, CkksError> {
        let ctx = self.ctx;
        let special = polys.pop().expect("special residue present");
        let p_mod = ctx.special_modulus();
        let out: Vec<uvpu_math::poly::Poly> = uvpu_par::par_map_vec(polys, |i, poly| {
            let m = ctx.modulus(i);
            // (P mod q_i)⁻¹ is precomputed (with its Shoup quotient) in
            // the context instead of being re-derived per limb per call.
            let p_inv = ctx.mod_down_inv(i);
            let mut coeffs = uvpu_math::pool::take_scratch(poly.n());
            for (o, (&c_i, &c_p)) in coeffs
                .iter_mut()
                .zip(poly.coeffs().iter().zip(special.coeffs()))
            {
                let centered = p_mod.to_centered(c_p);
                *o = p_inv.mul(m.sub(c_i, m.from_i64(centered)), &m);
            }
            poly.recycle();
            uvpu_math::poly::Poly::from_reduced_coeffs(coeffs, m).expect("power-of-two degree")
        });
        let _ = level;
        RnsPoly::from_parts(out, ctx)
    }

    /// Rescale: divides the payload by the last prime of the chain and
    /// drops one level; the scale shrinks by that prime.
    ///
    /// # Errors
    ///
    /// [`CkksError::OutOfLevels`] at level 0.
    pub fn rescale(&self, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
        let _span = scheme_span("ckks.rescale");
        let q_last = self.ctx.params().primes()[ct.level()] as f64;
        let parts = ct
            .parts
            .iter()
            .map(|p| p.rescale(self.ctx))
            .collect::<Result<_, _>>()?;
        Ok(Ciphertext {
            parts,
            scale: ct.scale / q_last,
        })
    }

    /// Homomorphic slot rotation (HRot): the Galois automorphism
    /// `X ↦ X^{5^step}` applied to both polynomials — the irregular
    /// permutation the paper's inter-lane network executes — followed by
    /// a keyswitch back under `s`.
    ///
    /// # Errors
    ///
    /// [`CkksError::MissingGaloisKey`] or substrate errors.
    pub fn rotate(
        &self,
        ct: &Ciphertext,
        step: i64,
        gks: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        let _span = scheme_span_lazy(|| format!("ckks.rotate step={step}"));
        let (g, key) = gks.for_step(self.ctx, step)?;
        self.apply_galois(ct, g, key)
    }

    /// Homomorphic complex conjugation of all slots.
    ///
    /// # Errors
    ///
    /// [`CkksError::MissingGaloisKey`] or substrate errors.
    pub fn conjugate(&self, ct: &Ciphertext, gks: &GaloisKeys) -> Result<Ciphertext, CkksError> {
        let _span = scheme_span("ckks.conjugate");
        let (g, key) = gks.for_conjugation(self.ctx)?;
        self.apply_galois(ct, g, key)
    }

    fn apply_galois(
        &self,
        ct: &Ciphertext,
        g: u64,
        key: &KeySwitchKey,
    ) -> Result<Ciphertext, CkksError> {
        if ct.size() != 2 {
            return Err(CkksError::InvalidParameters(
                "rotation expects a relinearized (2-part) ciphertext".into(),
            ));
        }
        let mut t0 = ct.parts[0].galois(g)?;
        let t1 = ct.parts[1].galois(g)?;
        let (ks0, ks1) = self.keyswitch(&t1, key)?;
        t0.add_assign(&ks0)?;
        Ok(Ciphertext {
            parts: vec![t0, ks1],
            scale: ct.scale,
        })
    }

    /// **Hoisted rotations**: rotates one ciphertext by many steps,
    /// decomposing `c₁` into keyswitch digits *once* and reusing them for
    /// every Galois key (digit decomposition is coefficient-wise, so it
    /// commutes with the automorphism). On hardware this removes the
    /// per-rotation digit NTTs — the dominant cost of BSGS baby steps.
    ///
    /// # Errors
    ///
    /// [`CkksError::MissingGaloisKey`] for an ungenerated step, or
    /// substrate errors.
    pub fn rotate_hoisted(
        &self,
        ct: &Ciphertext,
        steps: &[i64],
        gks: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>, CkksError> {
        if ct.size() != 2 {
            return Err(CkksError::InvalidParameters(
                "rotation expects a relinearized (2-part) ciphertext".into(),
            ));
        }
        let _span = scheme_span_lazy(|| format!("ckks.rotate_hoisted steps={}", steps.len()));
        let level = ct.level();
        // Hoist: one digit decomposition for all rotations.
        let digits: Vec<Vec<i64>> = (0..=level)
            .map(|j| ct.parts[1].residue_centered(j))
            .collect();
        steps
            .iter()
            .map(|&step| {
                let (g, key) = gks.for_step(self.ctx, step)?;
                let mut t0 = ct.parts[0].galois(g)?;
                let rotated: Vec<Vec<i64>> = digits
                    .iter()
                    .map(|d| crate::keys::galois_signed(d, g))
                    .collect();
                let (ks0, ks1) = self.keyswitch_digits(&rotated, key, level)?;
                t0.add_assign(&ks0)?;
                Ok(Ciphertext {
                    parts: vec![t0, ks1],
                    scale: ct.scale,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, C64};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ctx: CkksContext,
    }

    fn fixture(n_log: u32, levels: usize) -> Fixture {
        let ctx = CkksContext::new(CkksParams::new(1 << n_log, levels, 40).unwrap()).unwrap();
        Fixture { ctx }
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x.re - y.re).abs().max((x.im - y.im).abs()))
            .fold(0.0, f64::max)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let f = fixture(7, 2);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(1));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(2);

        let values: Vec<C64> = (0..enc.slot_count())
            .map(|j| C64::new(j as f64 * 0.1, -(j as f64) * 0.05))
            .collect();
        let pt = enc.encode(&f.ctx, 2, &values).unwrap();
        let ct = eval.encrypt(&pk, &pt, &mut rng).unwrap();
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &ct).unwrap());
        assert!(
            max_err(&values, &back) < 1e-4,
            "err {}",
            max_err(&values, &back)
        );

        // Symmetric encryption round-trips too.
        let ct2 = eval.encrypt_symmetric(&sk, &pt, &mut rng).unwrap();
        let back2 = enc.decode(&f.ctx, &eval.decrypt(&sk, &ct2).unwrap());
        assert!(max_err(&values, &back2) < 1e-4);
    }

    #[test]
    fn encrypt_is_bit_identical_under_either_key_form() {
        let f = fixture(7, 3);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(31));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let pk_coeff = PublicKey {
            b: pk.b.clone().to_coefficient(&f.ctx),
            a: pk.a.clone().to_coefficient(&f.ctx),
        };
        let eval = Evaluator::new(&f.ctx);
        let values: Vec<C64> = (0..enc.slot_count())
            .map(|j| C64::new((j as f64).cos(), 0.5 - j as f64 * 0.01))
            .collect();
        for level in [3, 1] {
            let pt = enc.encode(&f.ctx, level, &values).unwrap();
            let ct = eval
                .encrypt(&pk, &pt, &mut StdRng::seed_from_u64(32))
                .unwrap();
            let ct_coeff = eval
                .encrypt(&pk_coeff, &pt, &mut StdRng::seed_from_u64(32))
                .unwrap();
            assert_eq!(ct, ct_coeff, "level {level}");
        }
    }

    /// Decryption as `Σ_k parts[k]·s^k` with every part, `parts[0]`
    /// included, taken to evaluation form.
    fn decrypt_all_evaluation(ctx: &CkksContext, sk: &SecretKey, ct: &Ciphertext) -> RnsPoly {
        let s = sk.at_level(ctx, ct.level()).unwrap().to_evaluation(ctx);
        let mut acc = ct.parts[0].clone().to_evaluation(ctx);
        let mut s_pow = s.clone();
        for part in &ct.parts[1..] {
            acc.add_assign(&part.clone().to_evaluation(ctx).mul(&s_pow).unwrap())
                .unwrap();
            s_pow = s_pow.mul(&s).unwrap();
        }
        acc.to_coefficient(ctx)
    }

    #[test]
    fn decrypt_is_bit_identical_to_all_evaluation_formula() {
        let f = fixture(7, 2);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(33));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(34);
        let a: Vec<C64> = (0..16).map(|j| C64::new(j as f64 * 0.1, 1.0)).collect();
        let b: Vec<C64> = (0..16).map(|j| C64::new(2.0, -(j as f64) * 0.1)).collect();
        let ca = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 2, &a).unwrap(), &mut rng)
            .unwrap();
        let cb = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 2, &b).unwrap(), &mut rng)
            .unwrap();
        // The un-relinearised tensor product: (a0·b0, a0·b1 + a1·b0, a1·b1).
        let ev = |p: &RnsPoly| p.clone().to_evaluation(&f.ctx);
        let (a0, a1, b0, b1) = (
            ev(&ca.parts[0]),
            ev(&ca.parts[1]),
            ev(&cb.parts[0]),
            ev(&cb.parts[1]),
        );
        let d1 = a0.mul(&b1).unwrap().add(&a1.mul(&b0).unwrap()).unwrap();
        let tensor = Ciphertext {
            parts: [a0.mul(&b0).unwrap(), d1, a1.mul(&b1).unwrap()]
                .into_iter()
                .map(|p| p.to_coefficient(&f.ctx))
                .collect(),
            scale: ca.scale * cb.scale,
        };
        for ct in [&ca, &tensor] {
            let pt = eval.decrypt(&sk, ct).unwrap();
            assert_eq!(pt.poly, decrypt_all_evaluation(&f.ctx, &sk, ct));
            assert_eq!(pt.scale, ct.scale);
        }
        // The 3-part decryption is the slot-wise product.
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &tensor).unwrap());
        let want: Vec<C64> = a.iter().zip(&b).map(|(x, y)| x.mul(*y)).collect();
        assert!(
            max_err(&want, &back[..16]) < 1e-3,
            "err {}",
            max_err(&want, &back[..16])
        );
    }

    #[test]
    fn homomorphic_addition() {
        let f = fixture(6, 2);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(3));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(4);

        let a: Vec<C64> = (0..32).map(|j| C64::from(j as f64)).collect();
        let b: Vec<C64> = (0..32).map(|j| C64::from(100.0 - j as f64)).collect();
        let ca = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 2, &a).unwrap(), &mut rng)
            .unwrap();
        let cb = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 2, &b).unwrap(), &mut rng)
            .unwrap();
        let sum = eval.add(&ca, &cb).unwrap();
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &sum).unwrap());
        for w in back.iter().take(32) {
            assert!((w.re - 100.0).abs() < 1e-3);
        }
        let diff = eval.sub(&ca, &cb).unwrap();
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &diff).unwrap());
        for (j, w) in back.iter().take(32).enumerate() {
            assert!((w.re - (2.0 * j as f64 - 100.0)).abs() < 1e-3);
        }
    }

    #[test]
    fn homomorphic_multiplication_with_rescale() {
        let f = fixture(6, 3);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(5));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let rlk = kg.relin_key(&sk).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(6);

        let a: Vec<C64> = (0..32)
            .map(|j| C64::new(0.5 + j as f64 * 0.1, 0.2))
            .collect();
        let b: Vec<C64> = (0..32)
            .map(|j| C64::new(1.5 - j as f64 * 0.05, -0.1))
            .collect();
        let ca = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 3, &a).unwrap(), &mut rng)
            .unwrap();
        let cb = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 3, &b).unwrap(), &mut rng)
            .unwrap();
        let prod = eval.rescale(&eval.mul(&ca, &cb, &rlk).unwrap()).unwrap();
        assert_eq!(prod.level(), 2);
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &prod).unwrap());
        for j in 0..32 {
            let expect = a[j].mul(b[j]);
            assert!(
                (back[j].re - expect.re).abs() < 1e-3 && (back[j].im - expect.im).abs() < 1e-3,
                "slot {j}: {:?} vs {expect:?}",
                back[j]
            );
        }
    }

    #[test]
    fn multiplication_depth_two() {
        let f = fixture(6, 3);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(7));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let rlk = kg.relin_key(&sk).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(8);

        let x: Vec<C64> = (0..32).map(|j| C64::from(1.0 + j as f64 * 0.01)).collect();
        let ct = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 3, &x).unwrap(), &mut rng)
            .unwrap();
        let sq = eval.rescale(&eval.mul(&ct, &ct, &rlk).unwrap()).unwrap();
        let quad = eval.rescale(&eval.mul(&sq, &sq, &rlk).unwrap()).unwrap();
        assert_eq!(quad.level(), 1);
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &quad).unwrap());
        for (j, w) in back.iter().take(32).enumerate() {
            let expect = (1.0 + j as f64 * 0.01).powi(4);
            assert!(
                (w.re - expect).abs() < 1e-2,
                "slot {j}: {} vs {expect}",
                w.re
            );
        }
    }

    #[test]
    fn plaintext_operations() {
        let f = fixture(6, 2);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(9));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(10);

        let x: Vec<C64> = (0..32).map(|j| C64::from(j as f64)).collect();
        let w: Vec<C64> = (0..32).map(|j| C64::from(2.0 + (j % 3) as f64)).collect();
        let ct = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 2, &x).unwrap(), &mut rng)
            .unwrap();
        let pw = enc.encode(&f.ctx, 2, &w).unwrap();
        let prod = eval.rescale(&eval.mul_plain(&ct, &pw).unwrap()).unwrap();
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &prod).unwrap());
        for j in 0..32 {
            assert!((back[j].re - x[j].re * w[j].re).abs() < 1e-3);
        }

        let padd = enc.encode(&f.ctx, 2, &w).unwrap();
        let sum = eval.add_plain(&ct, &padd).unwrap();
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &sum).unwrap());
        for j in 0..32 {
            assert!((back[j].re - (x[j].re + w[j].re)).abs() < 1e-3);
        }
    }

    #[test]
    fn rotation_and_conjugation() {
        let f = fixture(6, 2);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(11));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let gks = kg.galois_keys(&sk, &[1, 5, -1]).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(12);

        let slots = enc.slot_count();
        let x: Vec<C64> = (0..slots).map(|j| C64::new(j as f64, 0.5)).collect();
        let ct = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 2, &x).unwrap(), &mut rng)
            .unwrap();

        for step in [1i64, 5, -1] {
            let rot = eval.rotate(&ct, step, &gks).unwrap();
            let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &rot).unwrap());
            for (j, w) in back.iter().take(slots).enumerate() {
                let src = (j as i64 + step).rem_euclid(slots as i64) as usize;
                assert!(
                    (w.re - x[src].re).abs() < 1e-3,
                    "step {step} slot {j}: {} vs {}",
                    w.re,
                    x[src].re
                );
            }
        }

        let conj = eval.conjugate(&ct, &gks).unwrap();
        let back = enc.decode(&f.ctx, &eval.decrypt(&sk, &conj).unwrap());
        for w in back.iter().take(slots) {
            assert!((w.im + 0.5).abs() < 1e-3);
        }
        assert!(matches!(
            eval.rotate(&ct, 3, &gks),
            Err(CkksError::MissingGaloisKey { step: 3 })
        ));
    }

    #[test]
    fn hoisted_rotations_equal_individual_rotations() {
        let f = fixture(6, 2);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(41));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let gks = kg.galois_keys(&sk, &[1, 2, 5]).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(42);
        let x: Vec<C64> = (0..enc.slot_count()).map(|j| C64::from(j as f64)).collect();
        let ct = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 2, &x).unwrap(), &mut rng)
            .unwrap();
        let hoisted = eval.rotate_hoisted(&ct, &[1, 2, 5], &gks).unwrap();
        for (i, &step) in [1i64, 2, 5].iter().enumerate() {
            let single = eval.rotate(&ct, step, &gks).unwrap();
            assert_eq!(hoisted[i], single, "step {step}: hoisting must be exact");
        }
    }

    #[test]
    fn scale_mismatch_is_rejected() {
        let f = fixture(6, 2);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(13));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(14);
        let x = vec![C64::from(1.0)];
        let p1 = enc.encode(&f.ctx, 2, &x).unwrap();
        let p2 = enc
            .encode_at_scale(&f.ctx, 2, &x, f.ctx.params().scale() * 2.0)
            .unwrap();
        let c1 = eval.encrypt(&pk, &p1, &mut rng).unwrap();
        let c2 = eval.encrypt(&pk, &p2, &mut rng).unwrap();
        assert!(matches!(
            eval.add(&c1, &c2),
            Err(CkksError::ScaleMismatch { .. })
        ));
        let _ = sk;
    }

    #[test]
    fn mul_and_rescale_emit_scheme_spans() {
        use uvpu_core::trace::{self, RingBufferSink, SharedSink, TraceEvent};

        let f = fixture(6, 3);
        let enc = Encoder::new(&f.ctx);
        let mut kg = KeyGenerator::new(&f.ctx, StdRng::seed_from_u64(21));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        let rlk = kg.relin_key(&sk).unwrap();
        let eval = Evaluator::new(&f.ctx);
        let mut rng = StdRng::seed_from_u64(22);

        let x: Vec<C64> = (0..32).map(|j| C64::from(0.25 + j as f64 * 0.01)).collect();
        let ct = eval
            .encrypt(&pk, &enc.encode(&f.ctx, 3, &x).unwrap(), &mut rng)
            .unwrap();

        let shared = SharedSink::new(RingBufferSink::new(256));
        trace::install_global(Box::new(shared.clone()));
        let _ = eval.rescale(&eval.mul(&ct, &ct, &rlk).unwrap()).unwrap();
        trace::take_global();

        let names: Vec<String> = shared.with(|s| {
            s.events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::SpanBegin { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect()
        });
        for expect in ["ckks.mul", "ckks.keyswitch", "ckks.rescale"] {
            assert!(
                names.iter().any(|n| n == expect),
                "missing {expect}: {names:?}"
            );
        }
        // Each begin is paired with an end.
        let (begins, ends) = shared.with(|s| {
            let b = s
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::SpanBegin { .. }))
                .count();
            let e = s
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::SpanEnd { .. }))
                .count();
            (b, e)
        });
        assert_eq!(begins, ends);
        let _ = sk;
    }
}
