//! What every workload shares: run settings, the closed-loop window,
//! and the shape of a workload's result.

use std::time::{Duration, Instant};

/// Ring degree and chain depth the workloads run at.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// `log2 N`.
    pub log_n: u32,
    /// Multiplicative levels `L`; the chain has `L + 1` limbs.
    pub levels: usize,
}

impl Shape {
    /// Ring degree `N`.
    #[must_use]
    pub const fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Chain limbs at the top level.
    #[must_use]
    pub const fn limbs(&self) -> usize {
        self.levels + 1
    }
}

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Shortest timed window.
    pub seconds: f64,
    /// Fewest timed requests; the window runs on until it has them.
    pub min_requests: u64,
    /// Ring degree and depth.
    pub shape: Shape,
    /// Corrupt one of the workload's timed results, so the benchmark's
    /// own tests can prove that its checks bite.
    pub corrupt: bool,
}

/// A number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One timed unit of closed-loop work: a request, or a served burst.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Host seconds the unit took.
    pub busy_s: f64,
    /// Requests attempted in the unit.
    pub attempted: u64,
    /// Host latency of each of the unit's ok requests, in seconds.
    pub ok_latencies_s: Vec<f64>,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// The timed units, in order.
    pub units: Vec<Unit>,
    /// Timed requests attempted.
    pub attempted: u64,
    /// Timed requests whose result was checked and found correct.
    pub ok: u64,
    /// Every failed correctness check, as a reason.
    pub failures: Vec<String>,
    /// Exact checks and modelled figures that repeat for a given seed.
    pub exact: Vec<Metric>,
    /// Buffer-pool misses during the timed window.
    pub pool_misses: u64,
    /// The first timed round of a served workload, for the per-layer
    /// serve and fault numbers.
    pub served: Option<crate::serve_mixed::Round>,
}

impl WorkloadResult {
    /// Host latency of every ok timed request, in order.
    pub fn ok_latencies_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.units
            .iter()
            .flat_map(|u| u.ok_latencies_s.iter().copied())
    }

    /// Host seconds spent inside timed units.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.units.iter().map(|u| u.busy_s).sum()
    }

    /// Adds a timed unit and its counts.
    pub fn push(&mut self, unit: Unit) {
        self.attempted += unit.attempted;
        self.ok += unit.ok_latencies_s.len() as u64;
        self.units.push(unit);
    }

    /// Records a failed check (keeping the first few reasons).
    pub fn fail(&mut self, reason: String) {
        if self.failures.len() < 16 {
            self.failures.push(reason);
        }
    }
}

/// Upper bound on one timed window, so a run always ends in time.
const MAX_WINDOW: Duration = Duration::from_secs(70);

/// A closed-loop timed window: it ends at a period boundary once it has
/// lasted `seconds` and holds `min_requests` requests.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    seconds: f64,
    min_requests: u64,
    period: u64,
}

impl Window {
    /// Opens the window now.
    #[must_use]
    pub fn open(cfg: &RunConfig, period: u64) -> Self {
        Self {
            start: Instant::now(),
            seconds: cfg.seconds,
            min_requests: cfg.min_requests,
            period,
        }
    }

    /// Whether the window is over after `timed` requests.
    #[must_use]
    pub fn done(&self, timed: u64) -> bool {
        if !timed.is_multiple_of(self.period) {
            return false;
        }
        let elapsed = self.start.elapsed();
        elapsed >= MAX_WINDOW
            || (timed >= self.min_requests && elapsed.as_secs_f64() >= self.seconds)
    }
}

/// SplitMix64 finaliser, for deriving independent sub-seeds.
#[must_use]
pub const fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
