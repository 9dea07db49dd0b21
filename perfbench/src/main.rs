//! End-to-end and per-layer benchmark of the uvpu workspace.
//!
//! ```text
//! uvpu-perfbench --workload <ckks-eval|ckks-client|serve-mixed> --seed <n>
//!     --seconds <s> --trace <0|1> [--smoke] [--threads <t>]
//!     [--corrupt] [--record <file>] [--commit <id>]
//! uvpu-perfbench --probe
//! ```
//!
//! One process runs one workload. The last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A run-context record (and, when traced, the span list)
//! is written to `--record`. The process exits with 1 when any
//! correctness check fails.

mod ckks_client;
mod ckks_eval;
mod common;
mod context;
mod ladder;
mod serve_mixed;
mod stats;
mod trace;

use common::{Metric, RunConfig, Shape, WorkloadResult};
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Tracer;

/// The worker threads every workload runs with (the host's core count
/// when the benchmark was defined). It is part of the workload's
/// definition and is not read from the environment.
const THREADS: usize = 2;
/// Fewest timed requests per window: p90 then has ten samples beyond it.
const MIN_REQUESTS: u64 = 100;

const WORKLOADS: [&str; 3] = ["ckks-eval", "ckks-client", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    threads: usize,
    corrupt: bool,
    record: Option<PathBuf>,
    commit: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("uvpu-perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        threads: THREADS,
        corrupt: false,
        record: None,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                a.smoke = true;
                continue;
            }
            "--corrupt" => {
                a.corrupt = true;
                continue;
            }
            _ => {}
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |what: &str| -> ! { usage(&format!("{flag} takes {what}, got {value:?}")) };
        match flag.as_str() {
            "--workload" => a.workload.clone_from(&value),
            "--seed" => a.seed = value.parse().unwrap_or_else(|_| bad("an integer")),
            "--seconds" => a.seconds = value.parse().unwrap_or_else(|_| bad("a number")),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("0 or 1"),
                }
            }
            "--threads" => a.threads = value.parse().unwrap_or_else(|_| bad("a positive integer")),
            "--record" => a.record = Some(PathBuf::from(&value)),
            "--commit" => a.commit.clone_from(&value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        usage(&format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.threads == 0 {
        usage("--threads must be positive");
    }
    a
}

fn run_workload(name: &str, cfg: &RunConfig, t: &mut Tracer) -> WorkloadResult {
    match name {
        "ckks-eval" => ckks_eval::run(cfg, t),
        "ckks-client" => ckks_client::run(cfg, t),
        _ => serve_mixed::run(cfg, t),
    }
}

/// Host-clock end-to-end metrics of a run: throughput is ok requests
/// per host second inside the timed requests; the percentiles are over
/// every ok request of the window.
fn end_to_end(r: &WorkloadResult) -> Vec<Metric> {
    let ms: Vec<f64> = r.ok_latencies_s().map(|s| s * 1e3).collect();
    vec![
        Metric::new("setup_s", stats::median(&r.setup_s), "s"),
        Metric::new("throughput_per_s", r.ok as f64 / r.busy_s(), "1/s"),
        Metric::new("latency_p50_ms", stats::quantile(&ms, 0.5), "ms"),
        Metric::new("latency_p90_ms", stats::quantile(&ms, 0.9), "ms"),
        Metric::new("ok_frac", r.ok as f64 / r.attempted.max(1) as f64, "ratio"),
    ]
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--probe") {
        let p = context::probe();
        println!(
            "{{\"alu_ms\": {}, \"mem_stream_16mib_ms\": {}}}",
            num(p.alu_ms),
            num(p.mem_stream_ms)
        );
        return;
    }
    let args = parse_args();
    uvpu_par::set_thread_override(Some(args.threads));
    let shape = Shape {
        log_n: if args.smoke { 10 } else { 13 },
        levels: 9,
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        min_requests: if args.smoke { 8 } else { MIN_REQUESTS },
        shape,
        corrupt: args.corrupt,
    };
    let load_start = context::load_average();
    let cpu_start = context::cpu_jiffies();

    let mut plain = Tracer::new(false);
    let untraced = run_workload(&args.workload, &cfg, &mut plain);
    let mut e2e = end_to_end(&untraced);
    e2e.push(Metric::new(
        "peak_rss_mb",
        context::peak_rss_mib().unwrap_or(0.0),
        "MiB",
    ));

    let mut failures = untraced.failures.clone();
    let mut report = untraced;
    let mut per_layer: Vec<(Metric, u64, &'static str)> = Vec::new();
    let mut spans = String::new();
    if args.trace {
        let mut tracer = Tracer::new(true);
        let traced = run_workload(&args.workload, &cfg, &mut tracer);
        failures.extend(traced.failures.iter().cloned());
        let mut layers = ladder::Layers::new();
        ladder::from_spans(&tracer, &mut layers);
        ladder::run(shape, args.seed, traced.served.as_ref(), &mut layers);
        let per_req = traced.pool_misses as f64 / traced.attempted.max(1) as f64;
        layers.insert(
            "math.pool_misses_per_req".into(),
            ladder::Layer {
                value: per_req,
                unit: "count",
                calls: traced.attempted,
                source: "span",
            },
        );
        let traced_e2e = end_to_end(&traced);
        let value = |ms: &[Metric], name: &str| {
            ms.iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        let pct = |name: &str| (value(&traced_e2e, name) / value(&e2e, name) - 1.0) * 100.0;
        for (name, value) in [
            ("trace.overhead_p50_pct", pct("latency_p50_ms")),
            ("trace.overhead_throughput_pct", pct("throughput_per_s")),
        ] {
            layers.insert(
                name.into(),
                ladder::Layer {
                    value,
                    unit: "pct",
                    calls: traced.attempted,
                    source: "span",
                },
            );
        }
        per_layer = layers
            .into_iter()
            .map(|(name, l)| (Metric::new(name, l.value, l.unit), l.calls, l.source))
            .collect();
        spans = tracer.to_json_lines();
        report = traced;
    }
    let load_end = context::load_average();
    let steal = context::steal_pct(cpu_start, context::cpu_jiffies());
    let correct = failures.is_empty();

    for m in &e2e {
        println!("{} = {} {}", m.name, num(m.value), m.unit);
    }
    for m in &report.exact {
        println!("{} = {} {} (exact)", m.name, num(m.value), m.unit);
    }
    for (m, calls, source) in &per_layer {
        println!(
            "{} = {} {} ({calls} calls, {source})",
            m.name,
            num(m.value),
            m.unit
        );
    }
    for f in &failures {
        println!("check failed: {f}");
    }

    if let Some(path) = &args.record {
        let mut rec = String::new();
        let _ = write!(
            rec,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"commit\": \"{}\", \
             \"nproc\": {}, \"threads\": {}, \"load_avg_start\": {}, \"load_avg_end\": {}, \"steal_pct\": {}, \
             \"attempted\": {}, \"ok\": {}, \"setups\": {}, \"end_to_end\": {}, \"exact\": {}",
            args.workload,
            args.seed,
            args.trace,
            args.smoke,
            args.commit,
            context::nproc(),
            uvpu_par::max_threads(),
            num(load_start.unwrap_or(f64::NAN)),
            num(load_end.unwrap_or(f64::NAN)),
            num(steal.unwrap_or(f64::NAN)),
            report.attempted,
            report.ok,
            report.setup_s.len(),
            metrics_json(&e2e),
            metrics_json(&report.exact),
        );
        let samples: Vec<String> = report
            .ok_latencies_s()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect();
        let setups: Vec<String> = report
            .setup_s
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect();
        let _ = write!(
            rec,
            ", \"busy_s\": {}, \"ok_latencies_ms\": [{}], \"setup_ms\": [{}]",
            num(report.busy_s()),
            samples.join(", "),
            setups.join(", ")
        );
        let layer_metrics: Vec<Metric> = per_layer.iter().map(|(m, _, _)| m.clone()).collect();
        let calls: Vec<String> = per_layer
            .iter()
            .map(|(m, c, s)| format!("\"{}\": [{c}, \"{s}\"]", m.name))
            .collect();
        let _ = write!(
            rec,
            ", \"per_layer\": {}, \"per_layer_calls\": {{{}}}, \"failures\": [{}]}}",
            metrics_json(&layer_metrics),
            calls.join(", "),
            failures
                .iter()
                .map(|f| json_string(f))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let written = std::fs::write(path, rec + "\n").and_then(|()| {
            if spans.is_empty() {
                Ok(())
            } else {
                std::fs::write(path.with_extension("spans.jsonl"), &spans)
            }
        });
        if let Err(e) = written {
            eprintln!("uvpu-perfbench: cannot write the run record: {e}");
            std::process::exit(1);
        }
    }

    let metrics = if args.trace {
        per_layer.into_iter().map(|(m, _, _)| m).collect::<Vec<_>>()
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.attempted - report.ok,
        metrics_json(&metrics)
    );
    std::process::exit(i32::from(!correct));
}
