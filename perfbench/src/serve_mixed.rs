//! `serve-mixed`: the `uvpu-serve` service under four tenants.
//!
//! Tenants 1–3 send HMult/HAdd/HRot frames with `L + 1` limbs and
//! `2(L + 1)` residues (about 1.3 MB each at N = 2^13). Tenant 4 is
//! hostile: a seeded lane-butterfly bit-flip fault environment, sending
//! bare NTTs that run through the detectors and retry/quarantine
//! recovery. Bursts overflow the queue and a fixed share of frames carry
//! tight deadlines, so quota, queue-full, deadline and circuit-open
//! refusals all happen. CKKS does no work here: wire decoding,
//! admission, the batch scheduler and fault recovery on the bit-exact
//! simulator do.
//!
//! The run is a sequence of identical rounds. Each round is a fresh
//! service (its set-up: service, key uploads, and a priming frame of
//! every operation so that first-sight premeasurement is set-up work),
//! then four bursts. One client pre-encodes a burst, submits every
//! frame, calls `drain()`, and collects the responses. Because every
//! round replays the same modelled run, the exact figures do not depend
//! on how many rounds fit in the window, and each round is checked to be
//! identical to the first.

use crate::common::{mix, Metric, RunConfig, Shape, Unit, Window, WorkloadResult};
use crate::stats::quantile_u64;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use uvpu_accel::config::AcceleratorConfig;
use uvpu_accel::workload::FheOp;
use uvpu_core::trace::FaultSite;
use uvpu_fault::plan::FaultKind;
use uvpu_fault::{digest64, mix64};
use uvpu_serve::admission::AdmissionConfig;
use uvpu_serve::service::{ServeConfig, Service, SubmitOutcome, TenantFault};
use uvpu_serve::wire::{
    decode_frame, encode_key_upload, encode_request, op_code, Frame, KeyKind, WireOp,
};

/// The hostile tenant.
pub const HOSTILE: u32 = 4;
/// The tenant whose priming frames are part of each round's set-up.
const PRIMER: u32 = 5;
/// Frames per burst; larger than the queue.
const BURST: u64 = 24;
/// Bursts per round.
const BURSTS: u64 = 4;
/// Frames per round.
const ROUND_FRAMES: u64 = BURST * BURSTS;
/// Executed hostile requests that run under the fault environment.
const FAULTY_REQUESTS: u64 = 8;
/// Galois element selector of every HRot frame.
const GALOIS_ELT: u8 = 1;

/// Everything a round needs, fixed by the seed.
#[derive(Debug, Clone)]
pub struct Mix {
    shape: Shape,
    seed: u64,
    config: ServeConfig,
    /// Deadline of a "tight" frame: half an HMult's serial estimate.
    tight: u64,
    /// Deadline of a "medium" frame: four HMult serial estimates.
    medium: u64,
}

/// What one round measured and checked.
#[derive(Debug, Default)]
pub struct Round {
    /// Set-up host time.
    pub setup_s: f64,
    /// Host time of the bursts (each from the submit of its first frame
    /// to the end of its drain) and the host latency of the ok frames.
    pub timed: Unit,
    /// Frames that got an ok response.
    pub ok: u64,
    /// Modelled latency of each ok request, in cycles.
    pub model_latency: Vec<u64>,
    /// Modelled cycles the round's bursts took.
    pub model_cycles: u64,
    /// Busy and total lane cycles of the round's batches.
    pub occupancy: (u64, u64),
    /// Refusals by reason.
    pub rejected: BTreeMap<String, u64>,
    /// Requests shed at dispatch.
    pub shed: u64,
    /// Detector trips.
    pub detected: u64,
    /// Requests that exhausted their retries.
    pub unrecoverable: u64,
    /// Modelled queue wait of each ok response, in cycles.
    pub queue_wait: Vec<u64>,
    /// Ids of hostile requests that executed.
    pub hostile_ids: Vec<u64>,
    /// Digest of the round's outcome ledger.
    pub digest: u64,
    /// Failed checks.
    pub failures: Vec<String>,
}

impl Mix {
    /// The mix for a shape and seed.
    ///
    /// # Panics
    ///
    /// Panics if the default accelerator cannot measure an HMult (a
    /// program bug).
    #[must_use]
    pub fn new(shape: Shape, seed: u64) -> Self {
        let accel = AcceleratorConfig::default();
        let mut config = ServeConfig {
            accel,
            admission: AdmissionConfig {
                queue_capacity: 16,
                per_tenant_quota: 5,
            },
            ..ServeConfig::default()
        };
        config.fault_envs.insert(
            HOSTILE,
            TenantFault {
                seed: mix(seed ^ 0x686f),
                site: FaultSite::LaneButterfly,
                kind: FaultKind::BitFlip { bit: 9 },
                rate_ppm: 500,
                faulty_requests: FAULTY_REQUESTS,
            },
        );
        let hmult = FheOp::HMult {
            n: shape.n(),
            limbs: shape.limbs(),
        }
        .latency_beats(accel.lanes)
        .expect("HMult estimate");
        Self {
            shape,
            seed,
            config,
            tight: hmult / 2,
            medium: 4 * hmult,
        }
    }

    /// The service configuration.
    #[must_use]
    pub const fn config(&self) -> &ServeConfig {
        &self.config
    }

    fn op(&self, code: u8) -> WireOp {
        WireOp {
            code,
            log2_n: self.shape.log_n as u8,
            limbs: self.shape.limbs() as u16,
            chain_index: 0,
            galois_elt: GALOIS_ELT,
        }
    }

    fn request(&self, tenant: u32, id: u64, op: &WireOp, deadline: u64) -> Vec<u8> {
        let residues = if op.code == op_code::NTT {
            1
        } else {
            2 * u32::from(op.limbs)
        };
        let base = mix(self.seed ^ (u64::from(tenant) << 48) ^ id);
        let words: Vec<u64> = (0..u64::from(residues) * op.n() as u64)
            .map(|k| mix64(base ^ k) >> 24)
            .collect();
        encode_request(tenant, id, op, deadline, residues, &words).expect("valid request frame")
    }

    /// Frame `j` of burst `b`: tenants round-robin, the hostile tenant
    /// sends bare NTTs, the others rotate through HMult/HAdd/HRot; one
    /// frame in eight has a tight deadline and one in twelve a medium one.
    #[must_use]
    fn frame(&self, b: u64, j: u64) -> (u32, u64, Vec<u8>) {
        let g = b * BURST + j;
        let tenant = 1 + (j % 4) as u32;
        let id = 1000 + g;
        let op = if tenant == HOSTILE {
            WireOp {
                limbs: 1,
                ..self.op(op_code::NTT)
            }
        } else {
            self.op([op_code::HMULT, op_code::HADD, op_code::HROT][((g / 4 + j) % 3) as usize])
        };
        let deadline = if g % 8 == 5 {
            self.tight
        } else if g % 12 == 6 {
            self.medium
        } else {
            u64::MAX
        };
        (tenant, id, self.request(tenant, id, &op, deadline))
    }

    /// A burst's frames, encoded.
    #[must_use]
    pub fn burst(&self, b: u64) -> Vec<(u32, u64, Vec<u8>)> {
        (0..BURST).map(|j| self.frame(b, j)).collect()
    }

    fn setup(&self) -> Service {
        let mut svc = Service::new(self.config.clone()).expect("service");
        let words: Vec<u64> = (0..64).map(|k| mix64(self.seed ^ k)).collect();
        let (log2_n, limbs) = (self.shape.log_n as u8, self.shape.limbs() as u16);
        for tenant in 1..=PRIMER {
            for (id, kind) in [
                (0, KeyKind::Relin),
                (1, KeyKind::Galois { elt: GALOIS_ELT }),
            ] {
                let key =
                    encode_key_upload(tenant, id, kind, log2_n, limbs, &words).expect("key frame");
                svc.submit_frame(&key).expect("key upload");
            }
        }
        for (id, code) in [op_code::HMULT, op_code::HROT, op_code::HADD]
            .into_iter()
            .enumerate()
        {
            let frame = self.request(PRIMER, id as u64, &self.op(code), u64::MAX);
            svc.submit_frame(&frame).expect("priming frame");
        }
        svc.drain().expect("priming drain");
        let _ = svc.take_responses();
        svc
    }

    /// Runs one round: a fresh service, then every burst.
    #[must_use]
    pub fn round(&self, corrupt: bool, t: &mut Tracer) -> Round {
        let mut r = Round::default();
        let start = Instant::now();
        let mut svc = t.span("serve.setup", crate::trace::NO_REQUEST, |_| self.setup());
        r.setup_s = start.elapsed().as_secs_f64();
        let now0 = svc.now();
        let ledger0 = svc.outcomes().len();
        let occ = |svc: &Service| {
            let f = svc.registry().family("accel.occupancy");
            (
                f.get("busy").copied().unwrap_or(0),
                f.get("total").copied().unwrap_or(0),
            )
        };
        let occ0 = occ(&svc);

        for b in 0..BURSTS {
            let frames = self.burst(b);
            let mut submitted: BTreeMap<(u32, u64), (bool, Instant)> = BTreeMap::new();
            let burst_start = Instant::now();
            t.span("serve.burst", b, |t| {
                for (tenant, id, bytes) in &frames {
                    let sent = Instant::now();
                    match t.span("serve.submit", *id, |_| svc.submit_frame(bytes)) {
                        Ok(outcome) => {
                            let queued = matches!(outcome, SubmitOutcome::Queued { .. });
                            submitted.insert((*tenant, *id), (queued, sent));
                        }
                        Err(e) => r
                            .failures
                            .push(format!("frame {id} refused on the wire: {e}")),
                    }
                }
                if let Err(e) = t.span("serve.drain", b, |_| svc.drain()) {
                    r.failures.push(format!("drain of burst {b} failed: {e}"));
                }
            });
            let end = Instant::now();
            r.timed.busy_s += (end - burst_start).as_secs_f64();
            r.timed.attempted += BURST;

            let mut responses = svc.take_responses();
            if corrupt && b == 0 {
                let ok_response = |bytes: &Vec<u8>| matches!(decode_frame(bytes), Ok(Frame::Response(resp)) if resp.status == 0);
                if let Some(frame) = responses.iter_mut().find(|f| ok_response(f)) {
                    frame[uvpu_serve::wire::HEADER_LEN] ^= 0x01;
                }
            }
            let mut seen: BTreeMap<(u32, u64), u32> = BTreeMap::new();
            for bytes in &responses {
                let (key, ok) = match decode_frame(bytes) {
                    Ok(Frame::Response(resp)) => {
                        if resp.status == 0 {
                            r.queue_wait.push(
                                (resp.complete_cycle - resp.admit_cycle)
                                    .saturating_sub(resp.compute_cycles),
                            );
                        }
                        ((resp.tenant, resp.request_id), Some(resp.status == 0))
                    }
                    Ok(Frame::Reject(rej)) => ((rej.tenant, rej.request_id), None),
                    Ok(_) => {
                        r.failures
                            .push("service answered with a non-response frame".into());
                        continue;
                    }
                    Err(e) => {
                        r.failures
                            .push(format!("response frame does not decode: {e}"));
                        continue;
                    }
                };
                let Some(&(queued, sent)) = submitted.get(&key) else {
                    r.failures
                        .push(format!("response echoes unknown tenant/request {key:?}"));
                    continue;
                };
                *seen.entry(key).or_default() += 1;
                // A frame refused at submit is answered by a reject frame only.
                if !queued && ok.is_some() {
                    r.failures
                        .push(format!("refused frame {key:?} got a response"));
                }
                if ok == Some(true) {
                    r.ok += 1;
                    r.timed.ok_latencies_s.push((end - sent).as_secs_f64());
                }
            }
            for key in submitted.keys() {
                match seen.get(key).copied().unwrap_or(0) {
                    1 => {}
                    n => r
                        .failures
                        .push(format!("frame {key:?} got {n} outcomes, not one")),
                }
            }
        }

        let outcomes = &svc.outcomes()[ledger0..];
        if outcomes.len() as u64 != ROUND_FRAMES {
            r.failures.push(format!(
                "ledger holds {} outcomes for {ROUND_FRAMES} frames",
                outcomes.len()
            ));
        }
        let mut words = Vec::with_capacity(outcomes.len() * 5);
        for o in outcomes {
            words.extend([
                u64::from(o.tenant),
                o.request_id,
                digest64(&o.label.bytes().map(u64::from).collect::<Vec<_>>()),
                o.digest,
                o.latency,
            ]);
            if o.label == "ok" {
                r.model_latency.push(o.latency);
            }
            if o.tenant == HOSTILE && (o.label == "ok" || o.label == "failed") {
                r.hostile_ids.push(o.request_id);
            }
        }
        r.digest = digest64(&words);
        r.model_cycles = svc.now() - now0;
        let occ1 = occ(&svc);
        r.occupancy = (occ1.0 - occ0.0, occ1.1 - occ0.1);
        let reg = svc.registry();
        r.rejected = reg.family("serve.rejected").clone();
        r.shed = reg.counter("serve.shed");
        r.detected = reg.counter("serve.detector_trips");
        r.unrecoverable = reg.counter("serve.unrecoverable");
        r
    }
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig, t: &mut Tracer) -> WorkloadResult {
    let mix = Mix::new(cfg.shape, cfg.seed);
    let mut res = WorkloadResult::default();
    let warm = mix.round(false, t); // warm-up, untimed
    res.setup_s.push(warm.setup_s);

    let pool_before = uvpu_math::pool::stats().misses;
    let window = Window::open(cfg, ROUND_FRAMES);
    let mut first: Option<Round> = None;
    let mut rounds = 0u64;
    while !window.done(rounds * ROUND_FRAMES) {
        let r = mix.round(cfg.corrupt && rounds == 0, t);
        res.setup_s.push(r.setup_s);
        res.push(r.timed.clone());
        for f in &r.failures {
            res.fail(format!("round {rounds}: {f}"));
        }
        match &first {
            None => first = Some(r),
            Some(f) if f.digest != r.digest || f.ok != r.ok => {
                res.fail(format!("round {rounds} differs from round 0"));
            }
            Some(_) => {}
        }
        rounds += 1;
    }
    res.pool_misses = uvpu_math::pool::stats().misses - pool_before;
    let r = first.expect("at least one round");
    let exact = vec![
        Metric::new(
            "model_latency_p50_kcycles",
            quantile_u64(&r.model_latency, 0.5) as f64 / 1e3,
            "kcycles",
        ),
        Metric::new(
            "model_latency_p90_kcycles",
            quantile_u64(&r.model_latency, 0.9) as f64 / 1e3,
            "kcycles",
        ),
        Metric::new(
            "model_throughput_req_per_mcycle",
            r.model_latency.len() as f64 * 1e6 / r.model_cycles as f64,
            "req/Mcycle",
        ),
        Metric::new(
            "model_occupancy_ppm",
            uvpu_accel::batch::ratio_ppm(r.occupancy.0, r.occupancy.1) as f64,
            "ppm",
        ),
    ];
    res.exact = exact;
    res.served = Some(r);
    res
}
