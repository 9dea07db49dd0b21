//! `ckks-client`: client round trips — encode, encrypt, decrypt, decode.
//!
//! No keyswitching runs here; the naive O(N²) encoder and decoder
//! dominate. A keyswitch change must not move this workload.

use crate::ckks_eval::{context, precision_bits, random_slots};
use crate::common::{mix, Metric, RunConfig, Unit, Window, WorkloadResult};
use crate::trace::{Tracer, NO_REQUEST};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use uvpu_ckks::encoder::{Encoder, C64};
use uvpu_ckks::keys::{KeyGenerator, PublicKey, SecretKey};
use uvpu_ckks::ops::Evaluator;
use uvpu_ckks::params::CkksContext;

/// Distinct seeded input vectors; request `i` uses vector `i % PERIOD`
/// and encryption randomness seeded by the same index, so a period's
/// results repeat exactly.
const PERIOD: u64 = 10;
/// A round trip with fewer correct bits than this is wrong.
pub const PRECISION_FLOOR_BITS: f64 = 20.0;

struct Setup {
    ctx: CkksContext,
    encoder: Encoder,
    sk: SecretKey,
    pk: PublicKey,
}

fn setup(cfg: &RunConfig, t: &mut Tracer) -> Setup {
    t.span("client.setup", NO_REQUEST, |_| {
        let ctx = context(cfg.shape);
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(mix(cfg.seed ^ 0x6b65)));
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk).expect("public key");
        let encoder = Encoder::new(&ctx);
        Setup {
            ctx,
            encoder,
            sk,
            pk,
        }
    })
}

fn round_trip(s: &Setup, cfg: &RunConfig, v: &[C64], i: u64, t: &mut Tracer) -> Vec<C64> {
    let eval = Evaluator::new(&s.ctx);
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed ^ 0x656e63 ^ (i % PERIOD)));
    t.span("client.request", i, |t| {
        let pt = t.span("ckks.encode", i, |_| {
            s.encoder
                .encode(&s.ctx, cfg.shape.levels, v)
                .expect("encode")
        });
        let ct = t.span("ckks.encrypt", i, |_| {
            eval.encrypt(&s.pk, &pt, &mut rng).expect("encrypt")
        });
        let back = t.span("ckks.decrypt", i, |_| {
            eval.decrypt(&s.sk, &ct).expect("decrypt")
        });
        t.span("ckks.decode", i, |_| s.encoder.decode(&s.ctx, &back))
    })
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig, t: &mut Tracer) -> WorkloadResult {
    let slots = cfg.shape.n() / 2;
    let inputs: Vec<Vec<C64>> = (0..PERIOD)
        .map(|k| random_slots(mix(cfg.seed ^ (k << 32) ^ 0x636c), slots))
        .collect();
    let mut res = WorkloadResult::default();
    let start = Instant::now();
    let s = setup(cfg, t);
    res.setup_s.push(start.elapsed().as_secs_f64());

    let _ = round_trip(&s, cfg, &inputs[0], 0, t); // warm-up, untimed

    let pool_before = uvpu_math::pool::stats().misses;
    let window = Window::open(cfg, PERIOD);
    let mut min_bits = f64::INFINITY;
    let mut i = 0u64;
    while !window.done(i) {
        // A set-up between every two round trips (not timed as a request),
        // so that `setup_s`, their median, samples the host across the
        // whole window as the latencies do.
        if i > 0 {
            let start = Instant::now();
            drop(setup(cfg, t));
            res.setup_s.push(start.elapsed().as_secs_f64());
        }
        let v = &inputs[(i % PERIOD) as usize];
        let start = Instant::now();
        let mut out = round_trip(&s, cfg, v, i, t);
        let dt = start.elapsed().as_secs_f64();
        if cfg.corrupt && i == 1 {
            out[0].re = f64::from_bits(out[0].re.to_bits() ^ (1 << 62));
        }
        let bits = precision_bits(&out, v);
        min_bits = min_bits.min(bits);
        let ok = bits >= PRECISION_FLOOR_BITS;
        if !ok {
            res.fail(format!(
                "round trip {i} kept {bits:.2} bits, below the floor"
            ));
        }
        res.push(Unit {
            busy_s: dt,
            attempted: 1,
            ok_latencies_s: if ok { vec![dt] } else { vec![] },
        });
        i += 1;
    }
    res.pool_misses = uvpu_math::pool::stats().misses - pool_before;
    res.exact = vec![Metric::new("precision_bits", min_bits, "bits")];
    res
}
