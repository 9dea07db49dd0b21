//! Per-layer numbers for the traced run.
//!
//! A layer number comes from one of three sources:
//!
//! - `span`: the workload's own calls, timed by the tracer (self time);
//! - `ladder`: direct calls into the layer's public functions at the
//!   workload's shape, for layers the workload does not call itself;
//! - `exact`: counts and modelled cycles, which repeat for a seed.
//!
//! Each number is a median over its calls and is reported with the
//! call count. Per-op call counts inside the program (for example the
//! `(ℓ+1)(ℓ+2)` digit NTTs of one keyswitch) are derived from the code
//! in the benchmark's notes, not measured here.

use crate::ckks_eval::{context, key_mib, random_slots, run_model, STEPS};
use crate::common::Shape;
use crate::serve_mixed::{Mix, Round, HOSTILE};
use crate::stats::{median, quantile_u64};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use uvpu_accel::machine::Accelerator;
use uvpu_accel::workload::{FheOp, ShapeMemo};
use uvpu_accel::AccelError;
use uvpu_ckks::keys::KeyGenerator;
use uvpu_ckks::ops::Evaluator;
use uvpu_ckks::rns_poly::RnsPoly;
use uvpu_core::auto_map::AutomorphismMapping;
use uvpu_core::ntt_map::NttPlan;
use uvpu_core::vpu::Vpu;
use uvpu_fault::detect::standard_detectors;
use uvpu_fault::exec::FaultyExecutor;
use uvpu_fault::mix64;
use uvpu_fault::plan::FaultPlan;
use uvpu_math::automorphism::galois_exponent;
use uvpu_math::rns::{BasisExtender, RnsBasis};

/// VPU lanes of the default accelerator.
const LANES: usize = 64;

/// One per-layer number.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Median value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Calls the median is taken over (1 for a single count).
    pub calls: u64,
    /// `span`, `ladder` or `exact`.
    pub source: &'static str,
}

/// Per-layer numbers by metric name.
pub type Layers = BTreeMap<String, Layer>;

fn put(
    l: &mut Layers,
    name: &str,
    value: f64,
    unit: &'static str,
    calls: u64,
    source: &'static str,
) {
    l.insert(
        name.to_string(),
        Layer {
            value,
            unit,
            calls,
            source,
        },
    );
}

/// Times `reps` calls of `f`, each on a fresh input from `prep`
/// (untimed); returns the median in seconds.
fn timed<T, R>(reps: usize, mut prep: impl FnMut() -> T, mut f: impl FnMut(T) -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = prep();
            let start = Instant::now();
            black_box(f(input));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Span names the workloads record, and the per-layer metric each one
/// feeds (with the factor from seconds to the metric's unit).
const SPAN_METRICS: [(&str, &str, f64, &str); 12] = [
    ("ckks.hmult", "ckks.hmult_ms", 1e3, "ms"),
    ("ckks.rescale", "ckks.rescale_ms", 1e3, "ms"),
    ("ckks.hrot", "ckks.hrot_ms", 1e3, "ms"),
    ("ckks.hadd", "ckks.hadd_ms", 1e3, "ms"),
    ("ckks.encode", "ckks.encode_ms", 1e3, "ms"),
    ("ckks.encrypt", "ckks.encrypt_ms", 1e3, "ms"),
    ("ckks.decrypt", "ckks.decrypt_ms", 1e3, "ms"),
    ("ckks.decode", "ckks.decode_ms", 1e3, "ms"),
    ("ckks.keygen_relin", "ckks.keygen_relin_ms", 1e3, "ms"),
    ("ckks.keygen_galois", "ckks.keygen_galois_ms", 1e3, "ms"),
    ("serve.submit", "serve.submit_us", 1e6, "us"),
    ("serve.drain", "serve.drain_ms", 1e3, "ms"),
];

/// Turns a traced run's spans into per-layer numbers.
pub fn from_spans(t: &Tracer, l: &mut Layers) {
    let times = t.self_times();
    for (span, metric, scale, unit) in SPAN_METRICS {
        if let Some(ns) = times.get(span) {
            let secs: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e9).collect();
            put(
                l,
                metric,
                median(&secs) * scale,
                unit,
                secs.len() as u64,
                "span",
            );
        }
    }
}

fn math(shape: Shape, l: &mut Layers) {
    let ctx = context(shape);
    let n = shape.n();
    let table = ctx.ntt(0);
    let mut rng = StdRng::seed_from_u64(1);
    let q = ctx.modulus(0).value();
    let data: Vec<u64> = uvpu_math::sampling::uniform(&mut rng, n, q);
    let key0: Vec<u64> = uvpu_math::sampling::uniform(&mut rng, n, q);
    let key1: Vec<u64> = uvpu_math::sampling::uniform(&mut rng, n, q);
    const REPS: usize = 64;
    let fwd = timed(REPS, || data.clone(), |mut a| table.forward_inplace(&mut a));
    put(l, "math.ntt_fwd_us", fwd * 1e6, "us", REPS as u64, "ladder");
    let inv = timed(REPS, || data.clone(), |mut a| table.inverse_inplace(&mut a));
    put(l, "math.ntt_inv_us", inv * 1e6, "us", REPS as u64, "ladder");
    let (mut acc0, mut acc1) = (vec![0u64; n], vec![0u64; n]);
    let pair = timed(
        REPS,
        || (),
        |()| {
            uvpu_math::kernel::ntt_accumulate_pair(
                table, &data, &key0, &key1, &mut acc0, &mut acc1,
            );
        },
    );
    put(
        l,
        "math.ntt_accumulate_pair_us",
        pair * 1e6,
        "us",
        REPS as u64,
        "ladder",
    );

    let chain = ctx.basis(shape.levels);
    let special = RnsBasis::new(vec![ctx.params().special_prime()]).expect("special basis");
    let ext = BasisExtender::new(chain, &special).expect("base converter");
    let coeffs: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            chain
                .moduli()
                .iter()
                .map(|m| uvpu_math::sampling::uniform(&mut rng, 1, m.value())[0])
                .collect()
        })
        .collect();
    const CONV_REPS: usize = 5;
    let conv = timed(
        CONV_REPS,
        || (),
        |()| {
            coeffs
                .iter()
                .map(|c| ext.convert(c)[0])
                .fold(0, u64::wrapping_add)
        },
    );
    put(
        l,
        "math.baseconv_ms",
        conv * 1e3,
        "ms",
        CONV_REPS as u64,
        "ladder",
    );
}

fn poly(shape: Shape, l: &mut Layers) {
    let ctx = context(shape);
    let mut rng = StdRng::seed_from_u64(2);
    let level = shape.levels;
    let coeff = RnsPoly::sample_uniform(&ctx, level, &mut rng).expect("uniform poly");
    let eval_a = coeff.clone().to_evaluation(&ctx);
    let eval_b = RnsPoly::sample_uniform(&ctx, level, &mut rng)
        .expect("uniform poly")
        .to_evaluation(&ctx);
    let g = galois_exponent(STEPS[0], shape.n());
    const REPS: usize = 16;
    let rows = [
        (
            "poly.to_eval_ms",
            timed(REPS, || coeff.clone(), |p| p.to_evaluation(&ctx)),
        ),
        (
            "poly.to_coeff_ms",
            timed(REPS, || eval_a.clone(), |p| p.to_coefficient(&ctx)),
        ),
        (
            "poly.mul_ms",
            timed(REPS, || (), |()| eval_a.mul(&eval_b).expect("mul")),
        ),
        (
            "poly.galois_ms",
            timed(REPS, || (), |()| coeff.galois(g).expect("galois")),
        ),
        (
            "poly.rescale_ms",
            timed(REPS, || (), |()| coeff.rescale(&ctx).expect("rescale")),
        ),
    ];
    for (name, secs) in rows {
        put(l, name, secs * 1e3, "ms", REPS as u64, "ladder");
    }
}

/// Times `reps` calls of `f` as the row `name`, in milliseconds, unless
/// the workload's own spans already gave that row.
fn ladder_ms<R>(l: &mut Layers, name: &str, reps: usize, mut f: impl FnMut() -> R) {
    if !l.contains_key(name) {
        let secs = timed(reps, || (), |()| f());
        put(l, name, secs * 1e3, "ms", reps as u64, "ladder");
    }
}

fn ckks(shape: Shape, l: &mut Layers) {
    let ctx = context(shape);
    let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(3));
    let sk = kg.secret_key();
    let pk = kg.public_key(&sk).expect("public key");
    const KEY_REPS: usize = 3;
    const OP_REPS: usize = 5;
    ladder_ms(l, "ckks.keygen_relin_ms", KEY_REPS, || {
        kg.relin_key(&sk).expect("relin key")
    });
    ladder_ms(l, "ckks.keygen_galois_ms", KEY_REPS, || {
        kg.galois_keys(&sk, &STEPS).expect("galois keys")
    });
    let rlk = kg.relin_key(&sk).expect("relin key");
    let gks = kg.galois_keys(&sk, &STEPS).expect("galois keys");
    put(
        l,
        "ckks.eval_key_mib",
        key_mib(std::iter::once(&rlk).chain(gks.keys.values())),
        "MiB",
        1,
        "exact",
    );

    let encoder = uvpu_ckks::encoder::Encoder::new(&ctx);
    let eval = Evaluator::new(&ctx);
    let values = random_slots(4, shape.n() / 2);
    let mut rng = StdRng::seed_from_u64(5);
    ladder_ms(l, "ckks.encode_ms", KEY_REPS, || {
        encoder.encode(&ctx, shape.levels, &values).expect("encode")
    });
    let pt = encoder.encode(&ctx, shape.levels, &values).expect("encode");
    ladder_ms(l, "ckks.encrypt_ms", OP_REPS, || {
        eval.encrypt(&pk, &pt, &mut rng).expect("encrypt")
    });
    let a = eval.encrypt(&pk, &pt, &mut rng).expect("encrypt");
    let b = eval.encrypt(&pk, &pt, &mut rng).expect("encrypt");
    ladder_ms(l, "ckks.decrypt_ms", OP_REPS, || {
        eval.decrypt(&sk, &a).expect("decrypt")
    });
    let dec = eval.decrypt(&sk, &a).expect("decrypt");
    ladder_ms(l, "ckks.decode_ms", KEY_REPS, || encoder.decode(&ctx, &dec));
    ladder_ms(l, "ckks.hmult_ms", OP_REPS, || {
        eval.mul(&a, &b, &rlk).expect("hmult")
    });
    let m = eval.mul(&a, &b, &rlk).expect("hmult");
    ladder_ms(l, "ckks.rescale_ms", OP_REPS, || {
        eval.rescale(&m).expect("rescale")
    });
    let r = eval.rescale(&m).expect("rescale");
    ladder_ms(l, "ckks.hrot_ms", OP_REPS, || {
        eval.rotate(&r, STEPS[0], &gks).expect("hrot")
    });
    ladder_ms(l, "ckks.hadd_ms", OP_REPS, || {
        eval.add(&r, &r).expect("hadd")
    });
}

fn core(shape: Shape, l: &mut Layers) {
    let ctx = context(shape);
    let n = shape.n();
    let q = ctx.modulus(0);
    let data: Vec<u64> = uvpu_math::sampling::uniform(&mut StdRng::seed_from_u64(6), n, q.value());
    let plan = NttPlan::cached(q, n, LANES).expect("NTT plan");
    let auto = AutomorphismMapping::cached(n, LANES, 5, 0).expect("automorphism mapping");
    let mut vpu = Vpu::new(LANES, q, 8).expect("VPU");
    const REPS: usize = 8;
    let ntt_ms = timed(
        REPS,
        || (),
        |()| {
            plan.execute_forward_negacyclic(&mut vpu, &data)
                .expect("NTT")
        },
    );
    let auto_ms = timed(
        REPS,
        || (),
        |()| auto.execute(&mut vpu, &data).expect("automorphism"),
    );
    let ntt_cycles = plan
        .execute_forward_negacyclic(&mut vpu, &data)
        .expect("NTT")
        .stats
        .total();
    let auto_cycles = auto
        .execute(&mut vpu, &data)
        .expect("automorphism")
        .stats
        .total();
    put(
        l,
        "core.sim_ntt_ms",
        ntt_ms * 1e3,
        "ms",
        REPS as u64,
        "ladder",
    );
    put(
        l,
        "core.sim_auto_ms",
        auto_ms * 1e3,
        "ms",
        REPS as u64,
        "ladder",
    );
    put(
        l,
        "core.sim_ntt_cycles",
        ntt_cycles as f64,
        "cycles",
        1,
        "exact",
    );
    put(
        l,
        "core.sim_auto_cycles",
        auto_cycles as f64,
        "cycles",
        1,
        "exact",
    );
}

fn accel(shape: Shape, l: &mut Layers) {
    let n = shape.n();
    let beats = |op: FheOp| op.latency_beats(LANES).expect("op latency") as f64 / 1e3;
    put(
        l,
        "accel.hmult_kcycles",
        beats(FheOp::HMult {
            n,
            limbs: shape.limbs(),
        }),
        "kcycles",
        1,
        "exact",
    );
    put(
        l,
        "accel.hrot_kcycles",
        beats(FheOp::HRot {
            n,
            limbs: shape.levels,
        }),
        "kcycles",
        1,
        "exact",
    );
    let mut memo = ShapeMemo::new();
    let report = run_model(shape, &mut memo);
    const REPS: usize = 8;
    let secs = timed(REPS, || (), |()| run_model(shape, &mut memo));
    put(
        l,
        "accel.run_batch_us",
        secs * 1e6,
        "us",
        REPS as u64,
        "ladder",
    );
    put(
        l,
        "accel.waves_per_batch",
        report.waves.len() as f64,
        "count",
        1,
        "exact",
    );
    put(
        l,
        "accel.wave_fill_ppm",
        report.wave_fill_ppm() as f64,
        "ppm",
        1,
        "exact",
    );
}

/// Replays a round's hostile requests that ran under the fault
/// environment through `run_tasks_with_recovery`, as the service does.
fn fault(shape: Shape, mix: &Mix, round: &Round, l: &mut Layers) {
    let config = mix.config();
    let env = config.fault_envs[&HOSTILE];
    let tasks = FheOp::Ntt { n: shape.n() }.lower();
    let mut accel = Accelerator::new(config.accel).expect("accelerator");
    let ids: Vec<u64> = round
        .hostile_ids
        .iter()
        .copied()
        .take(env.faulty_requests as usize)
        .collect();
    let (mut secs, mut attempts, mut detected, mut unrecoverable) = (Vec::new(), 0u64, 0u64, 0u64);
    for id in &ids {
        let plan = FaultPlan::new(
            mix64(env.seed ^ u64::from(HOSTILE) ^ id),
            env.site,
            env.kind,
            env.rate_ppm,
        );
        let mut exec =
            FaultyExecutor::new(plan, 0, config.accel.lanes, standard_detectors(env.seed));
        let start = Instant::now();
        let out = accel.run_tasks_with_recovery(&tasks, &mut exec, &config.retry);
        secs.push(start.elapsed().as_secs_f64());
        match out {
            Ok(rec) => {
                attempts += rec.attempts;
                detected += rec.detected_faults;
            }
            Err(AccelError::FaultUnrecoverable { .. }) => {
                attempts += u64::from(config.retry.max_retries) + 1;
                unrecoverable += 1;
            }
            Err(e) => panic!("recovery replay failed: {e}"),
        }
    }
    let calls = ids.len() as u64;
    put(
        l,
        "fault.recovery_ms",
        median(&secs) * 1e3,
        "ms",
        calls,
        "ladder",
    );
    put(
        l,
        "fault.attempts_per_req",
        attempts as f64 / calls.max(1) as f64,
        "count",
        calls,
        "exact",
    );
    put(
        l,
        "fault.detected",
        detected as f64,
        "count",
        calls,
        "exact",
    );
    put(
        l,
        "fault.unrecoverable",
        unrecoverable as f64,
        "count",
        calls,
        "exact",
    );
}

/// Serve-layer counts of one round, and `decode_frame` timed directly
/// on one burst's frames.
fn serve(mix: &Mix, round: &Round, l: &mut Layers) {
    for reason in ["queue_full", "quota_exceeded", "deadline", "circuit_open"] {
        let count = round.rejected.get(reason).copied().unwrap_or(0);
        put(
            l,
            &format!("serve.rejected.{reason}"),
            count as f64,
            "count",
            1,
            "exact",
        );
    }
    put(l, "serve.shed", round.shed as f64, "count", 1, "exact");
    let wait = quantile_u64(&round.queue_wait, 0.5) as f64 / 1e3;
    put(
        l,
        "serve.queue_wait_kcycles",
        wait,
        "kcycles",
        round.queue_wait.len() as u64,
        "exact",
    );
    let frames = mix.burst(0);
    let decode = timed(frames.len(), || (), {
        let mut it = frames.iter();
        move |()| uvpu_serve::wire::decode_frame(&it.next().expect("frame").2).is_ok()
    });
    put(
        l,
        "wire.decode_us",
        decode * 1e6,
        "us",
        frames.len() as u64,
        "ladder",
    );
}

/// Runs the whole ladder at `shape`, after `from_spans`: a row the
/// workload's spans already gave is not timed again. `served` is a round
/// the workload already ran (serve-mixed), or `None` to run one traced
/// round here.
pub fn run(shape: Shape, seed: u64, served: Option<&Round>, l: &mut Layers) {
    math(shape, l);
    poly(shape, l);
    ckks(shape, l);
    core(shape, l);
    accel(shape, l);
    let mix = Mix::new(shape, seed);
    let mut tracer = Tracer::new(true);
    let own;
    let round = if let Some(r) = served {
        r
    } else {
        own = mix.round(false, &mut tracer);
        let mut spans = Layers::new();
        from_spans(&tracer, &mut spans);
        for (name, mut layer) in spans {
            layer.source = "ladder";
            l.insert(name, layer);
        }
        &own
    };
    fault(shape, &mix, round, l);
    serve(&mix, round, l);
}
