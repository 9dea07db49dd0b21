//! `ckks-eval`: server-side homomorphic evaluation.
//!
//! Each request is HMult+relin of two inputs, rescale, HRot by one of
//! two steps, then HAdd of the product and its rotation. Keyswitching
//! (two per request, each `(ℓ+1)(ℓ+2)` fused digit NTTs: 110 at ℓ = 9,
//! 90 at ℓ = 8) dominates, and the relin and galois keys are streamed on
//! every request.

use crate::common::{mix, Metric, RunConfig, Shape, Unit, Window, WorkloadResult};
use crate::stats::quantile_u64;
use crate::trace::{Tracer, NO_REQUEST};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use uvpu_accel::batch::{BatchReport, BatchRequest};
use uvpu_accel::config::AcceleratorConfig;
use uvpu_accel::graph::TaskGraph;
use uvpu_accel::machine::Accelerator;
use uvpu_accel::workload::{FheOp, ShapeMemo};
use uvpu_ckks::ciphertext::Ciphertext;
use uvpu_ckks::encoder::{Encoder, C64};
use uvpu_ckks::keys::{GaloisKeys, KeyGenerator, KeySwitchKey, PublicKey, SecretKey};
use uvpu_ckks::ops::Evaluator;
use uvpu_ckks::params::{CkksContext, CkksParams};
use uvpu_ckks::rns_poly::RnsPoly;

/// Encoding scale, in bits.
pub const SCALE_BITS: u32 = 40;
/// The two rotation steps requests alternate between.
pub const STEPS: [i64; 2] = [1, 7];
/// Distinct input ciphertexts.
const INPUTS: usize = 4;
/// Requests cycle through `(inputs, step)` combinations with this period.
const PERIOD: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests in the modelled batch.
pub const MODEL_REQUESTS: u64 = 16;
/// A decrypted result with fewer correct bits than this is wrong.
pub const PRECISION_FLOOR_BITS: f64 = 16.0;

/// Seeded complex slot values in the unit square.
#[must_use]
pub fn random_slots(seed: u64, count: usize) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Bits of agreement: `−log2` of the largest slot error.
#[must_use]
pub fn precision_bits(got: &[C64], want: &[C64]) -> f64 {
    if got.len() != want.len() {
        return 0.0;
    }
    let err = got
        .iter()
        .zip(want)
        .map(|(g, w)| (g.re - w.re).hypot(g.im - w.im))
        .fold(0.0, f64::max);
    -err.max(f64::MIN_POSITIVE).log2()
}

/// The CKKS context of a shape.
///
/// # Panics
///
/// Panics if the shape has no parameters (never for the shapes used).
#[must_use]
pub fn context(shape: Shape) -> CkksContext {
    CkksContext::new(CkksParams::new(shape.n(), shape.levels, SCALE_BITS).expect("CKKS parameters"))
        .expect("CKKS context")
}

/// Total size of keyswitching keys in MiB, from their residue lengths.
#[must_use]
pub fn key_mib<'a>(keys: impl IntoIterator<Item = &'a KeySwitchKey>) -> f64 {
    let words: usize = keys
        .into_iter()
        .flat_map(|k| &k.parts)
        .flat_map(|(b, a)| b.iter().chain(a))
        .map(|p| p.coeffs().len())
        .sum();
    (words * 8) as f64 / f64::from(1 << 20)
}

/// Changes one word of a ciphertext (the tests' corruption).
///
/// # Panics
///
/// Panics if the ciphertext cannot be rebuilt (never for valid input).
#[must_use]
fn corrupt_word(ctx: &CkksContext, ct: &Ciphertext) -> Ciphertext {
    let part = &ct.parts[0];
    let mut polys: Vec<_> = (0..=part.level())
        .map(|i| part.residue(i).clone())
        .collect();
    let q = ctx.modulus(0).value();
    let w = &mut polys[0].coeffs_mut()[0];
    *w = (*w + 1) % q;
    let mut out = ct.clone();
    out.parts[0] = RnsPoly::from_parts(polys, ctx).expect("same shape");
    out
}

struct Setup {
    ctx: CkksContext,
    encoder: Encoder,
    sk: SecretKey,
    rlk: KeySwitchKey,
    gks: GaloisKeys,
    cts: Vec<Ciphertext>,
}

fn setup(shape: Shape, seed: u64, inputs: &[Vec<C64>], t: &mut Tracer) -> Setup {
    t.span("eval.setup", NO_REQUEST, |t| {
        let ctx = context(shape);
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(mix(seed ^ 0x6b65)));
        let sk = kg.secret_key();
        let pk: PublicKey = kg.public_key(&sk).expect("public key");
        let rlk = t.span("ckks.keygen_relin", NO_REQUEST, |_| {
            kg.relin_key(&sk).expect("relin key")
        });
        let gks = t.span("ckks.keygen_galois", NO_REQUEST, |_| {
            kg.galois_keys(&sk, &STEPS).expect("galois keys")
        });
        let encoder = Encoder::new(&ctx);
        let eval = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x656e63));
        let cts = inputs
            .iter()
            .map(|v| {
                let pt = t.span("ckks.encode", NO_REQUEST, |_| {
                    encoder.encode(&ctx, shape.levels, v).expect("encode")
                });
                t.span("ckks.encrypt", NO_REQUEST, |_| {
                    eval.encrypt(&pk, &pt, &mut rng).expect("encrypt")
                })
            })
            .collect();
        Setup {
            ctx,
            encoder,
            sk,
            rlk,
            gks,
            cts,
        }
    })
}

/// The `(a, b, step)` of request `i`.
fn combo(i: u64) -> (usize, usize, i64) {
    let a = (i % INPUTS as u64) as usize;
    (a, (a + 1) % INPUTS, STEPS[(i % 2) as usize])
}

fn request(s: &Setup, i: u64, t: &mut Tracer) -> Ciphertext {
    let (a, b, step) = combo(i);
    let eval = Evaluator::new(&s.ctx);
    t.span("eval.request", i, |t| {
        let m = t.span("ckks.hmult", i, |_| {
            eval.mul(&s.cts[a], &s.cts[b], &s.rlk).expect("hmult")
        });
        let r = t.span("ckks.rescale", i, |_| eval.rescale(&m).expect("rescale"));
        let rot = t.span("ckks.hrot", i, |_| {
            eval.rotate(&r, step, &s.gks).expect("hrot")
        });
        t.span("ckks.hadd", i, |_| eval.add(&r, &rot).expect("hadd"))
    })
}

/// The plaintext result of request `i`: `z + rot(z, step)`, `z = x_a ⊙ x_b`.
fn reference(inputs: &[Vec<C64>], i: u64) -> Vec<C64> {
    let (a, b, step) = combo(i);
    let z: Vec<C64> = inputs[a]
        .iter()
        .zip(&inputs[b])
        .map(|(x, y)| x.mul(*y))
        .collect();
    let slots = z.len();
    (0..slots)
        .map(|j| z[j].add(z[(j + step as usize) % slots]))
        .collect()
}

/// The request graphs of the modelled batch: HMult at the top level,
/// then HRot and HAdd one level down, each stage waiting on the last.
#[must_use]
fn model_requests(shape: Shape) -> Vec<BatchRequest> {
    let n = shape.n();
    (0..MODEL_REQUESTS)
        .map(|id| {
            let mut g = TaskGraph::new();
            let mul = g.add_op(
                FheOp::HMult {
                    n,
                    limbs: shape.limbs(),
                },
                &[],
            );
            let rot = g.add_op(
                FheOp::HRot {
                    n,
                    limbs: shape.levels,
                },
                &mul,
            );
            let deps: Vec<_> = mul.iter().chain(&rot).copied().collect();
            g.add_op(
                FheOp::HAdd {
                    n,
                    limbs: shape.levels,
                },
                &deps,
            );
            BatchRequest::new(id, g)
        })
        .collect()
}

/// Runs the modelled batch on the default accelerator.
///
/// # Panics
///
/// Panics if the default accelerator rejects the batch (a program bug).
#[must_use]
pub fn run_model(shape: Shape, memo: &mut ShapeMemo) -> BatchReport {
    Accelerator::new(AcceleratorConfig::default())
        .expect("default accelerator")
        .run_batch(&model_requests(shape), memo)
        .expect("modelled batch")
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig, t: &mut Tracer) -> WorkloadResult {
    let shape = cfg.shape;
    let slots = shape.n() / 2;
    // Inputs are generated before anything is timed.
    let inputs: Vec<Vec<C64>> = (0..INPUTS as u64)
        .map(|k| random_slots(mix(cfg.seed ^ (k << 32)), slots))
        .collect();
    let mut res = WorkloadResult::default();
    let mut setup_state = None;
    for _ in 0..SETUPS {
        drop(setup_state.take());
        let start = Instant::now();
        setup_state = Some(setup(shape, cfg.seed, &inputs, t));
        res.setup_s.push(start.elapsed().as_secs_f64());
    }
    let s = setup_state.expect("at least one set-up");

    // Warm-up: one untimed period, whose results are the ones decrypted
    // and checked against the plaintext reference.
    let verified: Vec<Ciphertext> = (0..PERIOD).map(|i| request(&s, i, t)).collect();

    let pool_before = uvpu_math::pool::stats().misses;
    let window = Window::open(cfg, PERIOD);
    let mut i = 0u64;
    let mut same = vec![0u64; PERIOD as usize];
    let mut units = Vec::new();
    while !window.done(i) {
        let start = Instant::now();
        let out = request(&s, PERIOD + i, t);
        let dt = start.elapsed().as_secs_f64();
        let out = if cfg.corrupt && i == 1 {
            corrupt_word(&s.ctx, &out)
        } else {
            out
        };
        // Evaluation is deterministic: every result must equal the
        // verified one of its combination, bit for bit.
        let identical = out == verified[(i % PERIOD) as usize];
        same[(i % PERIOD) as usize] += u64::from(identical);
        units.push(Unit {
            busy_s: dt,
            attempted: 1,
            ok_latencies_s: if identical { vec![dt] } else { vec![] },
        });
        i += 1;
    }
    res.pool_misses = uvpu_math::pool::stats().misses - pool_before;
    let per_combo = i / PERIOD;
    for (k, &n) in same.iter().enumerate() {
        if n < per_combo {
            res.fail(format!(
                "{} result(s) of combination {k} differ from the verified result",
                per_combo - n
            ));
        }
    }

    let eval = Evaluator::new(&s.ctx);
    let mut min_bits = f64::INFINITY;
    for (k, ct) in verified.iter().enumerate() {
        let pt = t.span("ckks.decrypt", NO_REQUEST, |_| {
            eval.decrypt(&s.sk, ct).expect("decrypt")
        });
        let got = t.span("ckks.decode", NO_REQUEST, |_| s.encoder.decode(&s.ctx, &pt));
        let bits = precision_bits(&got, &reference(&inputs, k as u64));
        if bits < PRECISION_FLOOR_BITS {
            // Its bit-identical repeats are wrong as well.
            for u in units.iter_mut().skip(k).step_by(PERIOD as usize) {
                u.ok_latencies_s.clear();
            }
            res.fail(format!(
                "combination {k} decrypts to {bits:.2} bits, below the floor"
            ));
        }
        min_bits = min_bits.min(bits);
    }
    for u in units {
        res.push(u);
    }

    let model = run_model(shape, &mut ShapeMemo::new());
    let finish: Vec<u64> = model.per_request.iter().map(|r| r.finish).collect();
    res.exact = vec![
        Metric::new("precision_bits", min_bits, "bits"),
        Metric::new(
            "model_latency_p50_kcycles",
            quantile_u64(&finish, 0.5) as f64 / 1e3,
            "kcycles",
        ),
        Metric::new(
            "model_latency_p90_kcycles",
            quantile_u64(&finish, 0.9) as f64 / 1e3,
            "kcycles",
        ),
        Metric::new(
            "model_throughput_req_per_mcycle",
            MODEL_REQUESTS as f64 * 1e6 / model.report.makespan as f64,
            "req/Mcycle",
        ),
        Metric::new("model_occupancy_ppm", model.occupancy_ppm() as f64, "ppm"),
    ];
    res
}
