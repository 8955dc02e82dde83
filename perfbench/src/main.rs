//! Closed-loop, full-scale benchmark of the CATalyze measure-and-analyze
//! pipeline.
//!
//! One process and one client: each pass starts only when the previous one
//! has finished. The benchmark calls the library entry points `catalyze
//! analyze` uses (`SimRequest::run`, then `AnalysisRequest::run`) at
//! `RunnerConfig::default_sim()` scale and starts no threads of its own;
//! the library's rayon pool uses `available_parallelism` threads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload memory-chase --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs untraced passes (`NoopObserver`) and reports the
//! end-to-end metrics. `--trace 1` alternates untraced passes with traced
//! ones, which hand every public call a `TraceCollector`, and reports the
//! per-layer metrics. `--size tiny` swaps in `RunnerConfig::fast_test()`
//! for the smoke test. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod stats;
mod workload;

use layers::{LayerSample, RunReadings};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Bench, Size, Tally, Workload};

const USAGE: &str = "usage: perfbench --workload <memory-chase|counter-read|analysis-sweep> \
                     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => size = Size::parse(value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// The largest share of the measured loop that repeated set-ups may take.
const SETUP_SHARE: f64 = 0.05;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} size={:?} available_parallelism={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size,
    );

    let setup = || {
        let start = Instant::now();
        let built = Bench::setup(args.workload, args.seed, args.size);
        built.map(|b| (b, start.elapsed().as_secs_f64()))
    };
    let (bench, first_setup_s) = match setup() {
        Ok(built) => built,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut setup_s = vec![first_setup_s];

    // A warm-up pass, untimed: its fingerprints are the reference every
    // measured pass must reproduce.
    let mut tally = Tally::default();
    let reference = bench.check_pass(&bench.pass(false), &mut tally);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut untraced_ms = Vec::new();
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut mismatches = 0usize;
    // Wall and CPU seconds of every pass, and of the untraced passes alone
    // with the analyses they completed.
    let (mut pass_s, mut pass_cpu_s) = (0.0, 0.0);
    let (mut untraced_s, mut untraced_cpu_s, mut untraced_analyses) = (0.0, 0.0, 0usize);
    let loop_start = Instant::now();
    while loop_start.elapsed() < budget
        || untraced_ms.is_empty()
        || (args.trace && samples.is_empty())
    {
        // Set-up repeats between passes while it takes under SETUP_SHARE of
        // the loop, so its median sees the same host as the passes do.
        if setup_s.iter().sum::<f64>() < SETUP_SHARE * loop_start.elapsed().as_secs_f64() {
            match setup() {
                Ok((_, s)) => setup_s.push(s),
                Err(e) => {
                    eprintln!("perfbench: set-up failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let traced = args.trace && untraced_ms.len() > samples.len();
        let cpu_before = stats::process_cpu_s();
        let start = Instant::now();
        let out = bench.pass(traced);
        let wall = start.elapsed();
        let cpu = match (cpu_before, stats::process_cpu_s()) {
            (Some(before), Some(after)) => after - before,
            _ => 0.0,
        };
        pass_s += wall.as_secs_f64();
        pass_cpu_s += cpu;
        let fingerprints = bench.check_pass(&out, &mut tally);
        let differ = fingerprints
            .iter()
            .zip(&reference)
            .filter(|(f, r)| matches!((f, r), (Some(f), Some(r)) if f != r))
            .count()
            + fingerprints.len().abs_diff(reference.len());
        mismatches += differ;
        tally.failed += differ as u64;
        if traced {
            samples.push(bench.layer_sample(&out, wall));
        } else {
            untraced_ms.push(wall.as_secs_f64() * 1e3);
            untraced_s += wall.as_secs_f64();
            untraced_cpu_s += cpu;
            untraced_analyses += out.analyses_ok();
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let peak_rss_mib = stats::peak_rss_mib().unwrap_or(0.0);
    let (replay_s, direct_s) = bench.check_engines(&mut tally);

    let pass_p50 = stats::median(&untraced_ms);
    let (tail_p, tail_ms, beyond) = stats::tail(&untraced_ms);
    println!(
        "passes: {} untraced, {} traced in {loop_s:.3} s; {} set-ups; \
         pass_ms_tail={tail_ms} is p{tail_p} of the untraced passes ({beyond} beyond it)",
        untraced_ms.len(),
        samples.len(),
        setup_s.len(),
    );
    println!(
        "untraced passes: {untraced_analyses} analyses in {untraced_s:.3} s wall, \
         {untraced_cpu_s:.2} s process CPU"
    );
    println!(
        "error_rate={} ({} failed of {} attempted; {mismatches} determinism mismatches)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let readings = RunReadings {
            untraced_pass_ms: pass_p50,
            untraced_tail_ms: tail_ms,
            untraced_analyses_per_s: untraced_analyses as f64 / untraced_s,
            replay_vs_direct: if direct_s > 0.0 { replay_s / direct_s } else { 0.0 },
            cpu_busy_ratio: pass_cpu_s / (pass_s * nproc as f64),
        };
        layers::metrics(&samples, &readings)
    } else {
        vec![
            ("pass_ms_p50", "ms", pass_p50),
            ("analyses_per_cpu_s", "1/s", untraced_analyses as f64 / untraced_cpu_s),
            ("setup_s", "s", stats::median(&setup_s)),
            ("peak_rss_mb", "MiB", peak_rss_mib),
        ]
    };
    println!("{}", result_json(tally, &metrics));
    ExitCode::SUCCESS
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(tally: Tally, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}
