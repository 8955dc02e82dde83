//! Per-layer numbers of one traced pass, read from the spans, counters and
//! funnel records the program already emits, plus the `linalg` counter
//! deltas the benchmark takes around each analysis.

use catalyze_linalg::StatsSnapshot;
use catalyze_obs::TraceCollector;

/// One traced pass, summed over its public calls.
#[derive(Debug, Default)]
pub struct LayerSample {
    /// The pass's wall time.
    wall_ns: u64,
    /// Summed durations of the root spans (`run/*`, `analyze/*`).
    root_ns: u64,
    record_ns: u64,
    replay_ns: u64,
    simulate_ns: u64,
    median_ns: u64,
    read_counters_ns: u64,
    noise_ns: u64,
    represent_ns: u64,
    select_ns: u64,
    define_ns: u64,
    /// Events × points × repetitions × threads read from the PMU.
    counter_reads: u64,
    memo_hits: u64,
    memo_misses: u64,
    passes_collapsed: u64,
    /// Funnel counts `[in, kept, dropped]` for the noise, represent and
    /// select stages, summed over the pass's analyses.
    funnel: [[u64; 3]; 3],
    /// `linalg` counter deltas summed over the pass's analyses.
    linalg: StatsSnapshot,
}

impl LayerSample {
    /// A sample of a pass that took `wall_ns` and moved the `linalg`
    /// counters by `linalg`; its collectors are folded in afterwards.
    pub fn new(wall_ns: u64, linalg: StatsSnapshot) -> Self {
        Self { wall_ns, linalg, ..Self::default() }
    }

    fn absorb_spans(&mut self, trace: &TraceCollector) {
        for span in trace.span_records() {
            let ns = span.duration_ns.unwrap_or(0);
            if span.depth == 0 {
                self.root_ns += ns;
            }
            let slot = match span.name.as_str() {
                "record" => &mut self.record_ns,
                "replay" => &mut self.replay_ns,
                "simulate" => &mut self.simulate_ns,
                "median" => &mut self.median_ns,
                "read-counters" => &mut self.read_counters_ns,
                "noise" => &mut self.noise_ns,
                "represent" => &mut self.represent_ns,
                "select" => &mut self.select_ns,
                "define" => &mut self.define_ns,
                _ => continue,
            };
            *slot += ns;
        }
    }

    /// Folds in the collector of one `SimRequest::run`.
    pub fn absorb_measure(&mut self, trace: &TraceCollector) {
        self.absorb_spans(trace);
        let counter = |name: &str| trace.counter_value(name).unwrap_or(0);
        self.counter_reads += counter("runner.events")
            * counter("runner.points")
            * counter("runner.repetitions")
            * counter("runner.dcache_threads").max(1);
        self.memo_hits += counter("stream.memo_hits");
        self.memo_misses += counter("stream.memo_misses");
        self.passes_collapsed += counter("stream.passes_collapsed");
    }

    /// Folds in the collector of one `AnalysisRequest::run`.
    pub fn absorb_analysis(&mut self, trace: &TraceCollector) {
        self.absorb_spans(trace);
        for (slot, stage) in self.funnel.iter_mut().zip(["noise", "represent", "select"]) {
            for record in trace.funnel_records().iter().filter(|r| r.stage == stage) {
                slot[0] += record.events_in as u64;
                slot[1] += record.kept as u64;
                slot[2] += record.total_dropped() as u64;
            }
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `f` over the samples.
fn median_by(samples: &[LayerSample], f: impl Fn(&LayerSample) -> f64) -> f64 {
    crate::stats::median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Whole-run readings that come from outside the traced passes.
pub struct RunReadings {
    /// Median wall time of the untraced passes interleaved with the traced.
    pub untraced_pass_ms: f64,
    /// `pass_ms_tail` of those untraced passes.
    pub untraced_tail_ms: f64,
    /// Analyses those untraced passes completed per second of their wall
    /// time.
    pub untraced_analyses_per_s: f64,
    /// Replay over Direct wall time in the engine check.
    pub replay_vs_direct: f64,
    /// Process CPU time over (loop wall time × available parallelism).
    pub cpu_busy_ratio: f64,
}

/// The per-layer metrics: `(name, unit, value)`, medians over the traced
/// passes. A layer a workload does not touch reads 0, and so does a ratio
/// whose denominator is 0.
pub fn metrics(
    samples: &[LayerSample],
    run: &RunReadings,
) -> Vec<(&'static str, &'static str, f64)> {
    let s = samples;
    const IN: usize = 0;
    const KEPT: usize = 1;
    const DROPPED: usize = 2;
    let funnel = |stage: usize, field: usize| median_by(s, |x| x.funnel[stage][field] as f64);
    vec![
        ("pass_ms_tail", "ms", run.untraced_tail_ms),
        ("analyses_per_s", "1/s", run.untraced_analyses_per_s),
        ("simarch.record_ms", "ms", median_by(s, |x| ms(x.record_ns))),
        ("simarch.replay_ms", "ms", median_by(s, |x| ms(x.replay_ns))),
        (
            "simarch.memo_hit_ratio",
            "ratio",
            median_by(s, |x| ratio(x.memo_hits as f64, (x.memo_hits + x.memo_misses) as f64)),
        ),
        ("simarch.passes_collapsed", "count", median_by(s, |x| x.passes_collapsed as f64)),
        ("simarch.replay_vs_direct", "ratio", run.replay_vs_direct),
        ("cat.simulate_ms", "ms", median_by(s, |x| ms(x.simulate_ns))),
        ("cat.median_ms", "ms", median_by(s, |x| ms(x.median_ns))),
        ("cat.read_counters_ms", "ms", median_by(s, |x| ms(x.read_counters_ns))),
        ("cat.counter_reads", "count", median_by(s, |x| x.counter_reads as f64)),
        (
            "cat.read_ns_per_counter",
            "ns",
            median_by(s, |x| ratio(x.read_counters_ns as f64, x.counter_reads as f64)),
        ),
        ("core.noise_ms", "ms", median_by(s, |x| ms(x.noise_ns))),
        ("core.represent_ms", "ms", median_by(s, |x| ms(x.represent_ns))),
        ("core.select_ms", "ms", median_by(s, |x| ms(x.select_ns))),
        ("core.define_ms", "ms", median_by(s, |x| ms(x.define_ns))),
        ("core.events_in", "count", funnel(0, IN)),
        ("core.noise_kept", "count", funnel(0, KEPT)),
        ("core.noise_dropped", "count", funnel(0, DROPPED)),
        ("core.represent_kept", "count", funnel(1, KEPT)),
        ("core.represent_dropped", "count", funnel(1, DROPPED)),
        ("core.selected", "count", funnel(2, KEPT)),
        ("core.select_dropped", "count", funnel(2, DROPPED)),
        ("linalg.lstsq_solves", "count", median_by(s, |x| x.linalg.lstsq_solves as f64)),
        ("linalg.qr_factorizations", "count", median_by(s, |x| x.linalg.qr_factorizations as f64)),
        (
            "linalg.factor_reuse_ratio",
            "ratio",
            median_by(s, |x| {
                let avoided = x.linalg.qr_factorizations_avoided as f64;
                ratio(avoided, avoided + x.linalg.qr_factorizations as f64)
            }),
        ),
        ("linalg.lstsq_ms", "ms", median_by(s, |x| ms(x.linalg.lstsq_nanos))),
        ("linalg.spqrcp_ms", "ms", median_by(s, |x| ms(x.linalg.spqrcp_nanos))),
        ("bench.cpu_busy_ratio", "ratio", run.cpu_busy_ratio),
        ("bench.uncovered_ms", "ms", median_by(s, |x| ms(x.wall_ns) - ms(x.root_ns))),
        ("obs.trace_overhead_ms", "ms", median_by(s, |x| ms(x.wall_ns)) - run.untraced_pass_ms),
    ]
}
