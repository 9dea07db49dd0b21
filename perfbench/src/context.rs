//! The run-context record: facts about the host taken with every run,
//! so that a noisy run can be told apart from a slow program. None of it
//! is a metric.

use std::hint::black_box;
use std::time::Instant;

/// Host speed probes. The benchmark takes them in a process of their
/// own before and after each run, so that the probe's buffer never
/// counts towards a workload's peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// A fixed ALU-bound loop, in milliseconds.
    pub alu_ms: f64,
    /// One read pass over a 16 MiB buffer, in milliseconds.
    pub mem_stream_ms: f64,
}

const ALU_ITERS: u64 = 4_000_000;
const STREAM_WORDS: usize = (16 << 20) / 8;

/// Times the ALU loop and the memory stream (best of three each, so a
/// single preemption does not decide the figure).
#[must_use]
pub fn probe() -> Probe {
    let best = |f: &dyn Fn() -> u64| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let alu_ms = best(&|| {
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for i in 0..ALU_ITERS {
            x = x.rotate_left(13).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ i;
        }
        x
    });
    let buf: Vec<u64> = (0..STREAM_WORDS as u64).collect();
    let mem_stream_ms = best(&|| black_box(&buf).iter().fold(0u64, |a, &w| a.wrapping_add(w)));
    Probe {
        alu_ms,
        mem_stream_ms,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The one-minute load average, if the platform reports it.
#[must_use]
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Host-wide `(steal, total)` CPU jiffies from `/proc/stat`, if the
/// platform reports them. Steal is time the hypervisor ran someone else
/// on this guest's CPUs.
#[must_use]
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two readings of
/// [`cpu_jiffies`], in percent.
#[must_use]
pub fn steal_pct(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (start?, end?);
    (t1 > t0).then(|| (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64)
}

/// Logical CPUs visible to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
