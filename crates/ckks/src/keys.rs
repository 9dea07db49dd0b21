//! Key material: secret, public, relinearization, and Galois keys.
//!
//! Keyswitching uses the RNS-gadget decomposition: one key pair per prime
//! `q_j`, built around the CRT idempotent `ĝ_j` (`≡ 1 mod q_j`, `≡ 0`
//! elsewhere). This is the keyswitch structure whose base conversions
//! motivate the paper's choice of Barrett over Montgomery lanes (§III-A).

use crate::params::CkksContext;
use crate::rns_poly::RnsPoly;
use crate::CkksError;
use rand::Rng;
use std::collections::HashMap;
use uvpu_math::automorphism::{conjugation_exponent, galois_exponent};
use uvpu_math::poly::Poly;

/// The ternary secret key.
#[derive(Debug, Clone, PartialEq)]
pub struct SecretKey {
    /// Signed coefficients in {−1, 0, 1}; re-lifted per level on demand.
    signed: Vec<i64>,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn generate<R: Rng>(ctx: &CkksContext, rng: &mut R) -> Self {
        Self {
            signed: uvpu_math::sampling::ternary(rng, ctx.params().n()),
        }
    }

    /// The secret lifted to RNS at `level`, in coefficient form.
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on a bad level (cannot happen via a context).
    pub fn at_level(&self, ctx: &CkksContext, level: usize) -> Result<RnsPoly, CkksError> {
        RnsPoly::from_signed(ctx, level, &self.signed)
    }

    /// The raw signed coefficients (for Galois-key generation).
    #[must_use]
    pub fn signed(&self) -> &[i64] {
        &self.signed
    }
}

/// An encryption of zero under the secret key: the public key.
///
/// Kept in evaluation form, where encryption multiplies by it, so
/// encrypting needs no forward NTT of the key.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicKey {
    /// `b = −a·s + e` (evaluation form, top level).
    pub b: RnsPoly,
    /// Uniform `a` (evaluation form, top level).
    pub a: RnsPoly,
}

/// One hybrid keyswitching key.
///
/// For each chain prime `j` it holds an encryption of `P·ĝ_j·target`
/// over the **extended basis** `(q_0, …, q_L, P)`, where `P` is the
/// special prime and `ĝ_j` the CRT idempotent. Keyswitching accumulates
/// digit products over the extended basis and divides by `P`, shrinking
/// the digit noise by `P` — the standard hybrid/GHS construction.
///
/// Residue polynomials are stored in evaluation form, extended-basis
/// order `[q_0 … q_L, P]`.
#[derive(Debug, Clone, PartialEq)]
pub struct KeySwitchKey {
    /// `parts[j] = (b_j residues, a_j residues)`.
    pub parts: Vec<(Vec<Poly>, Vec<Poly>)>,
}

/// Galois keys for a set of rotation steps (plus conjugation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GaloisKeys {
    /// Keyswitch keys indexed by the Galois element `g`.
    pub keys: HashMap<u64, KeySwitchKey>,
}

impl GaloisKeys {
    /// Looks up the key for a rotation step.
    ///
    /// # Errors
    ///
    /// [`CkksError::MissingGaloisKey`] when the step was not generated.
    pub fn for_step(
        &self,
        ctx: &CkksContext,
        step: i64,
    ) -> Result<(u64, &KeySwitchKey), CkksError> {
        let g = galois_exponent(step, ctx.params().n());
        self.keys
            .get(&g)
            .map(|k| (g, k))
            .ok_or(CkksError::MissingGaloisKey { step })
    }

    /// Looks up the conjugation key.
    ///
    /// # Errors
    ///
    /// [`CkksError::MissingGaloisKey`] when it was not generated.
    pub fn for_conjugation(&self, ctx: &CkksContext) -> Result<(u64, &KeySwitchKey), CkksError> {
        let g = conjugation_exponent(ctx.params().n());
        self.keys
            .get(&g)
            .map(|k| (g, k))
            .ok_or(CkksError::MissingGaloisKey { step: 0 })
    }
}

/// Generates all key material for a context.
#[derive(Debug)]
pub struct KeyGenerator<'a, R: Rng> {
    ctx: &'a CkksContext,
    rng: R,
}

impl<'a, R: Rng> KeyGenerator<'a, R> {
    /// Creates a generator over the given randomness source.
    pub fn new(ctx: &'a CkksContext, rng: R) -> Self {
        Self { ctx, rng }
    }

    /// Samples the secret key.
    pub fn secret_key(&mut self) -> SecretKey {
        SecretKey::generate(self.ctx, &mut self.rng)
    }

    /// Builds the public key `(−a·s + e, a)` at the top level, in
    /// evaluation form.
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on substrate errors.
    pub fn public_key(&mut self, sk: &SecretKey) -> Result<PublicKey, CkksError> {
        let level = self.ctx.params().levels();
        let s = sk.at_level(self.ctx, level)?.to_evaluation(self.ctx);
        let a = RnsPoly::sample_uniform(self.ctx, level, &mut self.rng)?.to_evaluation(self.ctx);
        let e = RnsPoly::sample_error(self.ctx, level, &mut self.rng)?;
        let b = e.to_evaluation(self.ctx).sub(&a.mul(&s)?)?;
        Ok(PublicKey { b, a })
    }

    /// Builds a keyswitch key for an arbitrary target, supplied as one
    /// evaluation-form residue polynomial per extended-basis modulus.
    fn keyswitch_key(
        &mut self,
        sk: &SecretKey,
        target_ext: &[Poly],
    ) -> Result<KeySwitchKey, CkksError> {
        let ctx = self.ctx;
        let level = ctx.params().levels();
        let ext = extended_basis(ctx);
        let p_special = ctx.special_modulus().value();
        // Secret in evaluation form per extended-basis modulus.
        let s_ext = lift_signed_eval(ctx, sk.signed());
        let mut parts = Vec::with_capacity(level + 1);
        for j in 0..=level {
            let mut b_res = Vec::with_capacity(ext.len());
            let mut a_res = Vec::with_capacity(ext.len());
            // Shared small error, lifted per modulus.
            let e_signed = sample_error_signed(ctx, &mut self.rng);
            for (i, &(m, table)) in ext.iter().enumerate() {
                let a_coeffs =
                    uvpu_math::sampling::uniform(&mut self.rng, ctx.params().n(), m.value());
                let a = Poly::from_coeffs(a_coeffs, m)
                    .map_err(CkksError::Math)?
                    .to_evaluation(table);
                let e = Poly::from_coeffs(e_signed.iter().map(|&c| m.from_i64(c)).collect(), m)
                    .map_err(CkksError::Math)?
                    .to_evaluation(table);
                // b = e − a·s + (i == j)·(P mod q_j)·target.
                let mut b = e
                    .sub(&a.mul(&s_ext[i]).map_err(CkksError::Math)?)
                    .map_err(CkksError::Math)?;
                if i == j {
                    let p_mod = m.reduce_u64(p_special);
                    b = b
                        .add(&target_ext[i].scalar_mul(p_mod))
                        .map_err(CkksError::Math)?;
                }
                b_res.push(b);
                a_res.push(a);
            }
            parts.push((b_res, a_res));
        }
        Ok(KeySwitchKey { parts })
    }

    /// The relinearization key (target `s²`).
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on substrate errors.
    pub fn relin_key(&mut self, sk: &SecretKey) -> Result<KeySwitchKey, CkksError> {
        let s_ext = lift_signed_eval(self.ctx, sk.signed());
        let s2_ext: Vec<Poly> = s_ext
            .iter()
            .map(|s| s.mul(s))
            .collect::<Result<_, _>>()
            .map_err(CkksError::Math)?;
        self.keyswitch_key(sk, &s2_ext)
    }

    /// Galois keys for the given rotation steps plus conjugation.
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on substrate errors.
    pub fn galois_keys(&mut self, sk: &SecretKey, steps: &[i64]) -> Result<GaloisKeys, CkksError> {
        let ctx = self.ctx;
        let n = ctx.params().n();
        let mut elements: Vec<u64> = steps.iter().map(|&s| galois_exponent(s, n)).collect();
        elements.push(conjugation_exponent(n));
        elements.sort_unstable();
        elements.dedup();
        let mut keys = HashMap::new();
        for g in elements {
            // τ_g of a ternary secret is ternary up to signs — apply the
            // automorphism on the signed coefficients directly.
            let tau_signed = galois_signed(sk.signed(), g);
            let tau_ext = lift_signed_eval(ctx, &tau_signed);
            keys.insert(g, self.keyswitch_key(sk, &tau_ext)?);
        }
        Ok(GaloisKeys { keys })
    }
}

/// The extended keyswitch basis `[q_0 … q_L, P]` as (modulus, table) pairs.
pub(crate) fn extended_basis(
    ctx: &CkksContext,
) -> Vec<(uvpu_math::modular::Modulus, &uvpu_math::ntt::NttTable)> {
    let mut out: Vec<_> = (0..=ctx.params().levels())
        .map(|i| (ctx.modulus(i), ctx.ntt(i)))
        .collect();
    out.push((ctx.special_modulus(), ctx.special_ntt()));
    out
}

/// Lifts signed coefficients to an evaluation-form residue per extended
/// modulus.
pub(crate) fn lift_signed_eval(ctx: &CkksContext, signed: &[i64]) -> Vec<Poly> {
    extended_basis(ctx)
        .into_iter()
        .map(|(m, table)| {
            Poly::from_coeffs(signed.iter().map(|&c| m.from_i64(c)).collect(), m)
                .expect("power-of-two degree")
                .to_evaluation(table)
        })
        .collect()
}

/// Applies `X ↦ X^g` to signed coefficients (negacyclic sign flips).
pub(crate) fn galois_signed(signed: &[i64], g: u64) -> Vec<i64> {
    let n = signed.len();
    let two_n = 2 * n as u64;
    let mut out = vec![0i64; n];
    for (i, &c) in signed.iter().enumerate() {
        let e = (i as u64 * g) % two_n;
        if e < n as u64 {
            out[e as usize] += c;
        } else {
            out[(e - n as u64) as usize] -= c;
        }
    }
    out
}

fn sample_error_signed<R: Rng>(ctx: &CkksContext, rng: &mut R) -> Vec<i64> {
    uvpu_math::sampling::GaussianSampler::new(ctx.params().error_std())
        .sample_vec(rng, ctx.params().n())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uvpu_math::poly::Representation;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::new(1 << 6, 2, 40).unwrap()).unwrap()
    }

    #[test]
    fn secret_key_is_ternary() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&ctx, &mut rng);
        assert!(sk.signed().iter().all(|&c| (-1..=1).contains(&c)));
        assert_eq!(sk.signed().len(), 64);
    }

    #[test]
    fn public_key_is_noisy_zero_encryption() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(2));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        assert_eq!(pk.a.representation(), Representation::Evaluation);
        assert_eq!(pk.b.representation(), Representation::Evaluation);
        // b + a·s should be the small error e.
        let s = sk.at_level(&ctx, 2).unwrap().to_evaluation(&ctx);
        let check =
            pk.b.add(&pk.a.mul(&s).unwrap())
                .unwrap()
                .to_coefficient(&ctx);
        for k in 0..64 {
            assert!(check.coefficient_centered_f64(&ctx, k).abs() < 40.0);
        }
    }

    #[test]
    fn public_key_is_the_coefficient_form_key_transformed() {
        // The same draws as `KeyGenerator::public_key`, with `b` built in
        // coefficient form and `a` left as sampled.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let s = sk.at_level(&ctx, 2).unwrap().to_evaluation(&ctx);
        let a = RnsPoly::sample_uniform(&ctx, 2, &mut rng).unwrap();
        let e = RnsPoly::sample_error(&ctx, 2, &mut rng).unwrap();
        let b = e
            .to_evaluation(&ctx)
            .sub(&a.clone().to_evaluation(&ctx).mul(&s).unwrap())
            .unwrap()
            .to_coefficient(&ctx);

        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(4));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).unwrap();
        assert_eq!(pk.a.clone().to_coefficient(&ctx), a);
        assert_eq!(pk.b.clone().to_coefficient(&ctx), b);
    }

    #[test]
    fn galois_keys_cover_requested_steps() {
        let ctx = ctx();
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(3));
        let sk = kg.secret_key();
        let gk = kg.galois_keys(&sk, &[1, 2, -1]).unwrap();
        assert!(gk.for_step(&ctx, 1).is_ok());
        assert!(gk.for_step(&ctx, 2).is_ok());
        assert!(gk.for_step(&ctx, -1).is_ok());
        assert!(gk.for_conjugation(&ctx).is_ok());
        assert!(matches!(
            gk.for_step(&ctx, 7),
            Err(CkksError::MissingGaloisKey { step: 7 })
        ));
    }
}
