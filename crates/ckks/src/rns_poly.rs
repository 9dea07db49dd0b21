//! RNS polynomials: one residue polynomial per prime of the chain.
//!
//! This is the `N × L` slice of the paper's `2 × N × L` ciphertext
//! tensor — the unit of data every vector kernel operates on.

use std::cell::RefCell;

use crate::params::CkksContext;
use crate::CkksError;
use rand::Rng;
use uvpu_math::poly::{Poly, Representation};
use uvpu_math::pool;

thread_local! {
    /// Recycled `Vec<Poly>` residue containers. The residue *buffers*
    /// already round-trip through `uvpu_math::pool`; this free-list does
    /// the same for the outer `Vec` so the steady-state `mul` → `recycle`
    /// cycle performs zero heap allocations (the last alloc/op the
    /// `ckks_rns_mul` bench gate used to report).
    static POLY_CONTAINERS: RefCell<Vec<Vec<Poly>>> = const { RefCell::new(Vec::new()) };
}

/// Backstop against hoarding: matches the spirit of the slab pool's
/// per-length cap. Containers are tiny (a few pointers per residue), so
/// a small cap loses nothing.
const MAX_FREE_CONTAINERS: usize = 32;

/// Takes an empty residue container with capacity for at least `cap`
/// polynomials, reusing a recycled one when available.
fn take_poly_container(cap: usize) -> Vec<Poly> {
    let reused = POLY_CONTAINERS.with(|c| c.borrow_mut().pop());
    match reused {
        Some(mut v) => {
            v.reserve(cap);
            v
        }
        None => Vec::with_capacity(cap),
    }
}

/// Returns a residue container to the thread-local free-list. The
/// caller must have drained the `Poly`s already (so their coefficient
/// buffers went back to the slab pool, not the allocator).
fn recycle_poly_container(mut v: Vec<Poly>) {
    v.clear();
    POLY_CONTAINERS.with(|c| {
        let mut free = c.borrow_mut();
        if free.len() < MAX_FREE_CONTAINERS {
            free.push(v);
        }
    });
}

/// A polynomial under an RNS basis (`level + 1` residue polynomials).
///
/// All residue polynomials share a representation (coefficient or
/// evaluation); mixing levels or representations is rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct RnsPoly {
    polys: Vec<Poly>,
    level: usize,
}

impl RnsPoly {
    /// The zero polynomial at `level` (coefficient form).
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on bad degree (cannot happen through a context).
    pub fn zero(ctx: &CkksContext, level: usize) -> Result<Self, CkksError> {
        let polys = (0..=level)
            .map(|i| Poly::zero(ctx.params().n(), ctx.modulus(i)))
            .collect::<Result<_, _>>()
            .map_err(CkksError::Math)?;
        Ok(Self { polys, level })
    }

    /// Builds from centered signed coefficients, reducing per prime.
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on bad degree.
    pub fn from_signed(ctx: &CkksContext, level: usize, coeffs: &[i64]) -> Result<Self, CkksError> {
        let polys = (0..=level)
            .map(|i| {
                let m = ctx.modulus(i);
                Poly::from_coeffs(coeffs.iter().map(|&c| m.from_i64(c)).collect(), m)
            })
            .collect::<Result<_, _>>()
            .map_err(CkksError::Math)?;
        Ok(Self { polys, level })
    }

    /// Samples a uniformly random polynomial at `level`.
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on bad degree.
    pub fn sample_uniform<R: Rng>(
        ctx: &CkksContext,
        level: usize,
        rng: &mut R,
    ) -> Result<Self, CkksError> {
        let polys = (0..=level)
            .map(|i| {
                let m = ctx.modulus(i);
                let coeffs = uvpu_math::sampling::uniform(rng, ctx.params().n(), m.value());
                Poly::from_coeffs(coeffs, m)
            })
            .collect::<Result<_, _>>()
            .map_err(CkksError::Math)?;
        Ok(Self { polys, level })
    }

    /// Samples a ternary polynomial (coefficients in {−1, 0, 1}).
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on bad degree.
    pub fn sample_ternary<R: Rng>(
        ctx: &CkksContext,
        level: usize,
        rng: &mut R,
    ) -> Result<Self, CkksError> {
        let coeffs = uvpu_math::sampling::ternary(rng, ctx.params().n());
        Self::from_signed(ctx, level, &coeffs)
    }

    /// Samples a discrete-Gaussian-like error polynomial (rounded
    /// Box–Muller with the context's σ).
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on bad degree.
    pub fn sample_error<R: Rng>(
        ctx: &CkksContext,
        level: usize,
        rng: &mut R,
    ) -> Result<Self, CkksError> {
        let sampler = uvpu_math::sampling::GaussianSampler::new(ctx.params().error_std());
        let coeffs = sampler.sample_vec(rng, ctx.params().n());
        Self::from_signed(ctx, level, &coeffs)
    }

    /// Assembles an RNS polynomial from per-prime residue polynomials
    /// (must match the context's prime order and share a representation).
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] when the residues disagree with the context's
    /// moduli or with each other.
    pub fn from_parts(polys: Vec<Poly>, ctx: &CkksContext) -> Result<Self, CkksError> {
        if polys.is_empty() {
            return Err(CkksError::Math(uvpu_math::MathError::InvalidBasis(
                "an RNS polynomial needs at least one residue",
            )));
        }
        for (i, p) in polys.iter().enumerate() {
            if p.modulus() != ctx.modulus(i) || p.representation() != polys[0].representation() {
                return Err(CkksError::Math(uvpu_math::MathError::ModulusMismatch));
            }
        }
        let level = polys.len() - 1;
        Ok(Self { polys, level })
    }

    /// Current level (`polys.len() − 1`).
    #[must_use]
    pub const fn level(&self) -> usize {
        self.level
    }

    /// Ring degree.
    #[must_use]
    pub fn n(&self) -> usize {
        self.polys[0].n()
    }

    /// Current representation (shared by all residues).
    #[must_use]
    pub fn representation(&self) -> Representation {
        self.polys[0].representation()
    }

    /// The residue polynomial for prime index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > level`.
    #[must_use]
    pub fn residue(&self, i: usize) -> &Poly {
        &self.polys[i]
    }

    fn check(&self, other: &Self) -> Result<(), CkksError> {
        if self.level != other.level {
            return Err(CkksError::LevelMismatch {
                left: self.level,
                right: other.level,
            });
        }
        Ok(())
    }

    /// Residue-wise addition.
    ///
    /// # Errors
    ///
    /// Level or representation mismatch.
    pub fn add(&self, other: &Self) -> Result<Self, CkksError> {
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// In-place residue-wise addition: `self += other`.
    ///
    /// # Errors
    ///
    /// Level or representation mismatch.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), CkksError> {
        self.check(other)?;
        for (a, b) in self.polys.iter_mut().zip(&other.polys) {
            a.add_assign(b).map_err(CkksError::Math)?;
        }
        Ok(())
    }

    /// Residue-wise subtraction.
    ///
    /// # Errors
    ///
    /// Level or representation mismatch.
    pub fn sub(&self, other: &Self) -> Result<Self, CkksError> {
        let mut out = self.clone();
        out.sub_assign(other)?;
        Ok(out)
    }

    /// In-place residue-wise subtraction: `self -= other`.
    ///
    /// # Errors
    ///
    /// Level or representation mismatch.
    pub fn sub_assign(&mut self, other: &Self) -> Result<(), CkksError> {
        self.check(other)?;
        for (a, b) in self.polys.iter_mut().zip(&other.polys) {
            a.sub_assign(b).map_err(CkksError::Math)?;
        }
        Ok(())
    }

    /// Negation.
    #[must_use]
    pub fn neg(&self) -> Self {
        let mut out = self.clone();
        out.negate_assign();
        out
    }

    /// In-place negation.
    pub fn negate_assign(&mut self) {
        for p in &mut self.polys {
            p.negate_assign();
        }
    }

    /// Returns every residue's coefficient buffer to the polynomial pool.
    ///
    /// Purely an optimization: hot loops that produce and discard
    /// intermediate polynomials can recycle them so the next borrow is a
    /// pool hit instead of a fresh heap allocation.
    pub fn recycle(self) {
        let mut polys = self.polys;
        for p in polys.drain(..) {
            p.recycle();
        }
        recycle_poly_container(polys);
    }

    /// Residue-wise ring multiplication (both operands in evaluation form).
    ///
    /// # Errors
    ///
    /// Level mismatch or coefficient-form operands.
    pub fn mul(&self, other: &Self) -> Result<Self, CkksError> {
        self.check(other)?;
        // Validate every residue pair up front so the per-limb map below
        // is infallible and can stream straight into a recycled
        // container — together with the pooled coefficient buffers this
        // makes the steady-state multiply allocation-free.
        for (a, b) in self.polys.iter().zip(&other.polys) {
            if a.n() != b.n() {
                return Err(CkksError::Math(uvpu_math::MathError::LengthMismatch {
                    left: a.n(),
                    right: b.n(),
                }));
            }
            if a.modulus() != b.modulus()
                || a.representation() != Representation::Evaluation
                || b.representation() != Representation::Evaluation
            {
                return Err(CkksError::Math(uvpu_math::MathError::ModulusMismatch));
            }
        }
        // RNS residues are independent; the per-limb products run on the
        // worker pool (collected in limb order, so bit-exact at any
        // thread count).
        let mut polys = take_poly_container(self.polys.len());
        uvpu_par::par_map_indexed_into(
            self.polys.len(),
            |i| {
                self.polys[i]
                    .mul(&other.polys[i])
                    .expect("residues prechecked compatible")
            },
            &mut polys,
        );
        Ok(Self {
            polys,
            level: self.level,
        })
    }

    /// Converts all residues to evaluation form (per-limb NTTs on the
    /// worker pool; a no-op, with no pool dispatch, if already there).
    #[must_use]
    pub fn to_evaluation(self, ctx: &CkksContext) -> Self {
        if self.representation() == Representation::Evaluation {
            return self;
        }
        let polys = uvpu_par::par_map_vec(self.polys, |i, p| p.to_evaluation(ctx.ntt(i)));
        Self {
            polys,
            level: self.level,
        }
    }

    /// Converts all residues to coefficient form (per-limb inverse NTTs
    /// on the worker pool; a no-op, with no pool dispatch, if already
    /// there).
    #[must_use]
    pub fn to_coefficient(self, ctx: &CkksContext) -> Self {
        if self.representation() == Representation::Coefficient {
            return self;
        }
        let polys = uvpu_par::par_map_vec(self.polys, |i, p| p.to_coefficient(ctx.ntt(i)));
        Self {
            polys,
            level: self.level,
        }
    }

    /// Applies the Galois automorphism `X ↦ X^g` (coefficient form).
    ///
    /// # Errors
    ///
    /// Even `g` or evaluation-form input.
    pub fn galois(&self, g: u64) -> Result<Self, CkksError> {
        let polys = uvpu_par::par_map_indexed(self.polys.len(), |i| self.polys[i].galois(g))
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(CkksError::Math)?;
        Ok(Self {
            polys,
            level: self.level,
        })
    }

    /// Centered signed coefficients of the residue at prime `j`
    /// (coefficient form) — the keyswitch digit in integer form.
    ///
    /// # Panics
    ///
    /// Panics in evaluation form or for `j > level`.
    #[must_use]
    pub fn residue_centered(&self, j: usize) -> Vec<i64> {
        assert_eq!(
            self.representation(),
            Representation::Coefficient,
            "digits require coefficient form"
        );
        let p = &self.polys[j];
        let m = p.modulus();
        p.coeffs().iter().map(|&c| m.to_centered(c)).collect()
    }

    /// Lifts the residue at prime `j` to every prime of the basis: the
    /// output's residue `i` is `[self mod q_j]` reduced mod `q_i` — the
    /// RNS-gadget decomposition digit used by keyswitching. Requires
    /// coefficient form.
    ///
    /// # Panics
    ///
    /// Panics if called in evaluation form (residues are not aligned
    /// across primes there) or `j > level`.
    #[must_use]
    pub fn lift_residue(&self, ctx: &CkksContext, j: usize) -> Self {
        assert_eq!(
            self.representation(),
            Representation::Coefficient,
            "lifting requires coefficient form"
        );
        let src = &self.polys[j];
        let q_j = ctx.modulus(j).value();
        let polys = uvpu_par::par_map_indexed(self.level + 1, |i| {
            let m = ctx.modulus(i);
            let mut coeffs = pool::take_scratch(src.n());
            for (o, &c) in coeffs.iter_mut().zip(src.coeffs()) {
                // Centered lift: values in (−q_j/2, q_j/2] keep the
                // gadget noise small.
                let centered = if c > q_j / 2 {
                    c as i64 - q_j as i64
                } else {
                    c as i64
                };
                *o = m.from_i64(centered);
            }
            Poly::from_reduced_coeffs(coeffs, m).expect("power-of-two degree")
        });
        Self {
            polys,
            level: self.level,
        }
    }

    /// Drops to `level − 1` by removing the last residue (no scaling) —
    /// used for modulus alignment of unscaled operands.
    ///
    /// # Errors
    ///
    /// [`CkksError::OutOfLevels`] at level 0.
    pub fn drop_last(&self) -> Result<Self, CkksError> {
        if self.level == 0 {
            return Err(CkksError::OutOfLevels);
        }
        Ok(Self {
            polys: self.polys[..self.level].to_vec(),
            level: self.level - 1,
        })
    }

    /// Restricts to the first `level + 1` residues (modulus reduction to
    /// a lower level; values are unchanged modulo the smaller product).
    ///
    /// # Errors
    ///
    /// [`CkksError::LevelMismatch`] if `level` exceeds the current one.
    pub fn truncate_level(&self, level: usize) -> Result<Self, CkksError> {
        if level > self.level {
            return Err(CkksError::LevelMismatch {
                left: self.level,
                right: level,
            });
        }
        Ok(Self {
            polys: self.polys[..=level].to_vec(),
            level,
        })
    }

    /// RNS rescale: divides by the last prime `q_ℓ` (rounded) and drops a
    /// level. Requires coefficient form.
    ///
    /// # Errors
    ///
    /// [`CkksError::OutOfLevels`] at level 0.
    ///
    /// # Panics
    ///
    /// Panics in evaluation form.
    pub fn rescale(&self, ctx: &CkksContext) -> Result<Self, CkksError> {
        if self.level == 0 {
            return Err(CkksError::OutOfLevels);
        }
        assert_eq!(
            self.representation(),
            Representation::Coefficient,
            "rescale requires coefficient form"
        );
        let last = &self.polys[self.level];
        let q_last = ctx.modulus(self.level).value();
        let polys = uvpu_par::par_map_indexed(self.level, |i| {
            let m = ctx.modulus(i);
            // (q_ℓ mod q_i)⁻¹ is precomputed (with its Shoup quotient) in
            // the context instead of being re-derived per limb per call.
            let q_last_inv = ctx.rescale_inv(self.level, i);
            let mut coeffs = pool::take_scratch(self.polys[i].n());
            for (o, (&c_i, &c_last)) in coeffs
                .iter_mut()
                .zip(self.polys[i].coeffs().iter().zip(last.coeffs()))
            {
                // Centered representative of c mod q_last keeps the
                // rounding error at ±1/2.
                let centered = if c_last > q_last / 2 {
                    c_last as i64 - q_last as i64
                } else {
                    c_last as i64
                };
                let diff = m.sub(c_i, m.from_i64(centered));
                *o = q_last_inv.mul(diff, &m);
            }
            Poly::from_reduced_coeffs(coeffs, m).expect("power-of-two degree")
        });
        Ok(Self {
            polys,
            level: self.level - 1,
        })
    }

    /// Reconstructs coefficient `k` as a centered `f64` via CRT. Requires
    /// coefficient form.
    ///
    /// # Panics
    ///
    /// Panics in evaluation form or for out-of-range `k`.
    #[must_use]
    pub fn coefficient_centered_f64(&self, ctx: &CkksContext, k: usize) -> f64 {
        assert_eq!(self.representation(), Representation::Coefficient);
        let residues: Vec<u64> = (0..=self.level)
            .map(|i| self.polys[i].coeffs()[k])
            .collect();
        ctx.basis(self.level)
            .reconstruct_centered_f64(&residues, &mut Vec::new())
    }

    /// Reconstructs every coefficient as a centered `f64` via CRT — the
    /// decoder's path out of RNS. Blocks of coefficients go to the worker
    /// pool; each worker reuses one residue buffer and one CRT scratch
    /// buffer for all of its blocks. Requires coefficient form.
    ///
    /// # Panics
    ///
    /// Panics in evaluation form.
    #[must_use]
    pub fn coefficients_centered_f64(&self, ctx: &CkksContext) -> Vec<f64> {
        const BLOCK: usize = 1024;
        assert_eq!(self.representation(), Representation::Coefficient);
        let basis = ctx.basis(self.level);
        let n = self.n();
        uvpu_par::par_map_indexed_with(
            n.div_ceil(BLOCK),
            || (vec![0u64; self.level + 1], Vec::new()),
            |(residues, scratch), b| {
                (b * BLOCK..n.min((b + 1) * BLOCK))
                    .map(|k| {
                        for (r, p) in residues.iter_mut().zip(&self.polys) {
                            *r = p.coeffs()[k];
                        }
                        basis.reconstruct_centered_f64(residues, scratch)
                    })
                    .collect::<Vec<f64>>()
            },
        )
        .concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::new(1 << 6, 2, 40).unwrap()).unwrap()
    }

    #[test]
    fn from_signed_round_trips_centered() {
        let ctx = ctx();
        let coeffs: Vec<i64> = (0..64).map(|i| i - 32).collect();
        let p = RnsPoly::from_signed(&ctx, 2, &coeffs).unwrap();
        for (k, &c) in coeffs.iter().enumerate() {
            assert_eq!(p.coefficient_centered_f64(&ctx, k), c as f64);
        }
    }

    #[test]
    fn whole_polynomial_crt_matches_per_coefficient_at_any_thread_count() {
        // 2^11 coefficients: two CRT blocks, so the pool path runs.
        let ctx = CkksContext::new(CkksParams::new(1 << 11, 3, 40).unwrap()).unwrap();
        let p = RnsPoly::sample_uniform(&ctx, 3, &mut StdRng::seed_from_u64(9)).unwrap();
        let want: Vec<u64> = (0..p.n())
            .map(|k| p.coefficient_centered_f64(&ctx, k).to_bits())
            .collect();
        for threads in [1, 3] {
            let got = uvpu_par::with_threads(threads, || p.coefficients_centered_f64(&ctx));
            let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn add_sub_level_checks() {
        let ctx = ctx();
        let a = RnsPoly::from_signed(&ctx, 2, &[1; 64]).unwrap();
        let b = RnsPoly::from_signed(&ctx, 1, &[1; 64]).unwrap();
        assert!(a.add(&b).is_err());
        let c = RnsPoly::from_signed(&ctx, 2, &[2; 64]).unwrap();
        assert_eq!(a.add(&c).unwrap().coefficient_centered_f64(&ctx, 0), 3.0);
        assert_eq!(a.sub(&c).unwrap().coefficient_centered_f64(&ctx, 0), -1.0);
        assert_eq!(a.neg().coefficient_centered_f64(&ctx, 0), -1.0);
    }

    #[test]
    fn eval_mul_matches_schoolbook_on_monomials() {
        let ctx = ctx();
        let mut x = vec![0i64; 64];
        x[1] = 1;
        let a = RnsPoly::from_signed(&ctx, 1, &x)
            .unwrap()
            .to_evaluation(&ctx);
        let b = a.clone();
        let prod = a.mul(&b).unwrap().to_coefficient(&ctx);
        assert_eq!(prod.coefficient_centered_f64(&ctx, 2), 1.0);
        assert_eq!(prod.coefficient_centered_f64(&ctx, 0), 0.0);
    }

    #[test]
    fn rescale_divides_by_last_prime() {
        let ctx = ctx();
        let q2 = ctx.params().primes()[2] as i64;
        // A multiple of q_2 rescales exactly.
        let coeffs: Vec<i64> = (0..64).map(|i| (i % 5) * q2).collect();
        let p = RnsPoly::from_signed(&ctx, 2, &coeffs).unwrap();
        let r = p.rescale(&ctx).unwrap();
        assert_eq!(r.level(), 1);
        for k in 0..64 {
            assert_eq!(r.coefficient_centered_f64(&ctx, k), (k as i64 % 5) as f64);
        }
        // Non-multiples round to within 1.
        let p = RnsPoly::from_signed(&ctx, 2, &[q2 + 7; 64]).unwrap();
        let r = p.rescale(&ctx).unwrap();
        assert!((r.coefficient_centered_f64(&ctx, 0) - 1.0).abs() <= 1.0);
    }

    #[test]
    fn lift_residue_is_consistent_mod_qj() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let p = RnsPoly::sample_uniform(&ctx, 2, &mut rng).unwrap();
        for j in 0..=2 {
            let lifted = p.lift_residue(&ctx, j);
            // Residue j of the lift equals residue j of the original.
            assert_eq!(lifted.residue(j), p.residue(j));
        }
    }

    #[test]
    fn sample_error_is_small() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(42);
        let e = RnsPoly::sample_error(&ctx, 2, &mut rng).unwrap();
        for k in 0..64 {
            assert!(e.coefficient_centered_f64(&ctx, k).abs() < 30.0);
        }
    }

    #[test]
    fn galois_round_trip() {
        let ctx = ctx();
        let coeffs: Vec<i64> = (0..64).collect();
        let p = RnsPoly::from_signed(&ctx, 1, &coeffs).unwrap();
        let g = 5u64;
        let g_inv = uvpu_math::util::mod_inverse(g, 128).unwrap();
        assert_eq!(p.galois(g).unwrap().galois(g_inv).unwrap(), p);
    }
}
