//! The three workloads: set-up, one pass, and the output checks.
//!
//! A *pass* is the unit of work in every workload. `memory-chase` and
//! `counter-read` measure three domains with `SimRequest::run` and analyze
//! each result with `AnalysisRequest::run`; `analysis-sweep` reruns
//! `AnalysisRequest::run` over a τ × α grid on measurements stored at
//! set-up. Checks run after a pass's timer has stopped.

use crate::layers::LayerSample;
use catalyze::basis::{self, Basis, CacheRegion};
use catalyze::pipeline::{AnalysisConfig, AnalysisReport, AnalysisRequest};
use catalyze::signature::{self, MetricSignature};
use catalyze::AnalysisError;
use catalyze_cat::{
    dcache, dstore, dtlb, Domain, MeasurementSet, RunError, RunnerConfig, SimEngine, SimRequest,
};
use catalyze_linalg::{stats_snapshot, StatsSnapshot};
use catalyze_obs::{NoopObserver, Observer, TraceCollector};
use catalyze_sim::{mi250x_like, sapphire_rapids_like, CpuEventSet, GpuEventSet, PmuConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// τ values of the `analysis-sweep` grid, taken from `repro ablate-tau`:
/// the values at which every domain still keeps events through the noise
/// filter, so every grid point runs all four stages.
const TAUS: [f64; 4] = [1e-4, 1e-2, 1e0, 1e2];
/// α values of the `analysis-sweep` grid, taken from `repro ablate-alpha`.
const ALPHAS: [f64; 4] = [1e-4, 5e-4, 1e-3, 1e-2];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Measure and analyze `dcache`, `dstore` and `dtlb`: the simulator's
    /// record/replay and stream engine do almost all the work.
    MemoryChase,
    /// Measure and analyze `cpu-flops`, `branch` and `gpu-flops`: counter
    /// reads dominate and replay is minor.
    CounterRead,
    /// Rerun the analysis over a τ × α grid on all six domains' stored
    /// measurements: only `core` and `linalg` work.
    AnalysisSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::MemoryChase, Workload::CounterRead, Workload::AnalysisSweep];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemoryChase => "memory-chase",
            Workload::CounterRead => "counter-read",
            Workload::AnalysisSweep => "analysis-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn domains(self) -> &'static [Domain] {
        match self {
            Workload::MemoryChase => &[Domain::Dcache, Domain::Dstore, Domain::Dtlb],
            Workload::CounterRead => &[Domain::CpuFlops, Domain::Branch, Domain::GpuFlops],
            Workload::AnalysisSweep => &Domain::ALL,
        }
    }
}

/// Problem size: the full-scale configuration, or the scaled-down one the
/// smoke test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `RunnerConfig::default_sim()`.
    Full,
    /// `RunnerConfig::fast_test()`.
    Tiny,
}

impl Size {
    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// Operations attempted and failed. An operation is one `SimRequest::run`
/// or `AnalysisRequest::run` call; it fails when it returns `Err` or when
/// its output fails a check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What the analysis of one domain needs besides measurements.
struct DomainInputs {
    domain: Domain,
    basis: Basis,
    signatures: Vec<MetricSignature>,
    config: AnalysisConfig,
}

fn cache_regions(regions: Vec<dcache::Region>) -> Vec<CacheRegion> {
    regions
        .into_iter()
        .map(|r| match r {
            dcache::Region::L1 => CacheRegion::L1,
            dcache::Region::L2 => CacheRegion::L2,
            dcache::Region::L3 => CacheRegion::L3,
            dcache::Region::Memory => CacheRegion::Memory,
        })
        .collect()
}

/// The basis, signatures and stage configuration `catalyze analyze` uses
/// for `domain`.
fn domain_inputs(domain: Domain, cfg: &RunnerConfig) -> DomainInputs {
    let hierarchy = &cfg.core.hierarchy;
    let (basis, signatures, config) = match domain {
        Domain::CpuFlops => (
            basis::cpu_flops_basis(),
            signature::cpu_flops_signatures(),
            AnalysisConfig::cpu_flops(),
        ),
        Domain::Branch => {
            (basis::branch_basis(), signature::branch_signatures(), AnalysisConfig::branch())
        }
        Domain::Dcache => (
            basis::dcache_basis(&cache_regions(dcache::point_regions(hierarchy))),
            signature::dcache_signatures(),
            AnalysisConfig::dcache(),
        ),
        Domain::Dtlb => (
            basis::dtlb_basis(&dtlb::point_hit_regions(&cfg.core.tlb)),
            signature::dtlb_signatures(),
            AnalysisConfig::dtlb(),
        ),
        Domain::Dstore => (
            basis::dstore_basis(&cache_regions(dstore::point_regions(hierarchy))),
            signature::dstore_signatures(),
            AnalysisConfig::dstore(),
        ),
        Domain::GpuFlops => (
            basis::gpu_flops_basis(),
            signature::gpu_flops_signatures(),
            AnalysisConfig::gpu_flops(),
        ),
    };
    DomainInputs { domain, basis, signatures, config }
}

/// The observer for one public call: a fresh collector on a traced pass,
/// the no-op observer otherwise.
fn observer(trace: &Option<TraceCollector>) -> &dyn Observer {
    match trace {
        Some(t) => t,
        None => &NoopObserver,
    }
}

/// One analysis made in a pass, kept until the pass timer has stopped.
pub struct Analysis {
    domain: Domain,
    signatures: usize,
    result: Result<AnalysisReport, AnalysisError>,
    trace: Option<TraceCollector>,
}

/// One measurement made in a pass, kept until the pass timer has stopped.
pub struct Measurement {
    domain: Domain,
    result: Result<MeasurementSet, RunError>,
    trace: Option<TraceCollector>,
}

/// Everything one pass produced.
pub struct PassOutput {
    measurements: Vec<Measurement>,
    analyses: Vec<Analysis>,
    linalg: StatsSnapshot,
}

impl PassOutput {
    /// Completed `AnalysisRequest::run` calls.
    pub fn analyses_ok(&self) -> usize {
        self.analyses.iter().filter(|a| a.result.is_ok()).count()
    }
}

/// Set-up state: inventories, configuration, per-domain analysis inputs,
/// and for `analysis-sweep` the stored measurements.
pub struct Bench {
    workload: Workload,
    cfg: RunnerConfig,
    cpu: CpuEventSet,
    gpu: GpuEventSet,
    inputs: Vec<DomainInputs>,
    stored: Vec<MeasurementSet>,
}

impl Bench {
    /// Builds the event inventories, the configuration and the bases; for
    /// `analysis-sweep`, also measures all six domains once. The workload
    /// seed reaches the program only as `PmuConfig::seed`.
    pub fn setup(workload: Workload, seed: u64, size: Size) -> Result<Bench, String> {
        let pmu = PmuConfig { seed, ..PmuConfig::default_sim() };
        let cfg = match size {
            Size::Full => RunnerConfig::builder().pmu(pmu).build(),
            Size::Tiny => {
                let cfg = RunnerConfig { pmu, ..RunnerConfig::fast_test() };
                cfg.validate().map(|()| cfg)
            }
        }
        .map_err(|e| format!("runner config: {e}"))?;
        let cpu = sapphire_rapids_like();
        let gpu = mi250x_like(cfg.gpu_devices);
        let inputs: Vec<DomainInputs> =
            workload.domains().iter().map(|&d| domain_inputs(d, &cfg)).collect();
        let mut bench = Bench { workload, cfg, cpu, gpu, inputs, stored: Vec::new() };
        if workload == Workload::AnalysisSweep {
            bench.stored = workload
                .domains()
                .iter()
                .map(|&d| bench.request(d).run().map_err(|e| format!("measure {d}: {e}")))
                .collect::<Result<_, _>>()?;
        }
        Ok(bench)
    }

    fn request(&self, domain: Domain) -> SimRequest<'_> {
        let request = SimRequest::new().domain(domain).config(&self.cfg);
        if domain.is_gpu() {
            request.gpu_events(&self.gpu)
        } else {
            request.events(&self.cpu)
        }
    }

    fn analyze(
        &self,
        inputs: &DomainInputs,
        ms: &MeasurementSet,
        config: AnalysisConfig,
        traced: bool,
        linalg: &mut StatsSnapshot,
    ) -> Analysis {
        let trace = traced.then(TraceCollector::new);
        let before = stats_snapshot();
        let result = AnalysisRequest::new()
            .domain(inputs.domain.label())
            .events(&ms.events)
            .runs(&ms.runs)
            .basis(&inputs.basis)
            .signatures(&inputs.signatures)
            .config(config)
            .observer(observer(&trace))
            .run();
        add_snapshot(linalg, &stats_snapshot().delta_since(&before));
        Analysis { domain: inputs.domain, signatures: inputs.signatures.len(), result, trace }
    }

    /// Runs one pass. A traced pass gives every public call its own
    /// `TraceCollector`; an untraced one passes `NoopObserver`.
    pub fn pass(&self, traced: bool) -> PassOutput {
        let mut linalg = StatsSnapshot::default();
        let mut measurements = Vec::new();
        let mut analyses = Vec::new();
        match self.workload {
            Workload::MemoryChase | Workload::CounterRead => {
                for inputs in &self.inputs {
                    let trace = traced.then(TraceCollector::new);
                    let result = self.request(inputs.domain).observer(observer(&trace)).run();
                    if let Ok(ms) = &result {
                        analyses.push(self.analyze(inputs, ms, inputs.config, traced, &mut linalg));
                    }
                    measurements.push(Measurement { domain: inputs.domain, result, trace });
                }
            }
            Workload::AnalysisSweep => {
                for (inputs, ms) in self.inputs.iter().zip(&self.stored) {
                    for tau in TAUS {
                        for alpha in ALPHAS {
                            let config = AnalysisConfig { tau, alpha, ..inputs.config };
                            analyses.push(self.analyze(inputs, ms, config, traced, &mut linalg));
                        }
                    }
                }
            }
        }
        PassOutput { measurements, analyses, linalg }
    }

    /// Checks one pass's outputs, counts its operations into `tally`, and
    /// returns one fingerprint per analysis (`None` for a failed one).
    pub fn check_pass(&self, out: &PassOutput, tally: &mut Tally) -> Vec<Option<u64>> {
        for m in &out.measurements {
            let ok = match &m.result {
                Ok(ms) => {
                    let events = if m.domain.is_gpu() { self.gpu.len() } else { self.cpu.len() };
                    ms.validate().is_ok()
                        && ms.domain == m.domain.label()
                        && ms.num_events() == events
                }
                Err(e) => {
                    eprintln!("measure {}: {e}", m.domain);
                    false
                }
            };
            tally.record(ok);
        }
        out.analyses
            .iter()
            .map(|a| {
                let fingerprint = match &a.result {
                    Ok(report) => check_report(a, report).then(|| fingerprint(report)),
                    Err(e) => {
                        eprintln!("analyze {}: {e}", a.domain);
                        None
                    }
                };
                tally.record(fingerprint.is_some());
                fingerprint
            })
            .collect()
    }

    /// The layer sample of a traced pass that took `wall`.
    pub fn layer_sample(&self, out: &PassOutput, wall: Duration) -> LayerSample {
        let mut sample = LayerSample::new(wall.as_nanos() as u64, out.linalg);
        for m in &out.measurements {
            if let Some(trace) = &m.trace {
                sample.absorb_measure(trace);
            }
        }
        for a in &out.analyses {
            if let Some(trace) = &a.trace {
                sample.absorb_analysis(trace);
            }
        }
        sample
    }

    /// The Replay-vs-Direct check: every CPU domain of the workload is
    /// measured on the default `Replay` engine and on `SimEngine::Direct`,
    /// and the two `MeasurementSet`s must be bit-identical (for
    /// `analysis-sweep`, so must the stored set). Returns the summed replay
    /// and direct wall seconds.
    pub fn check_engines(&self, tally: &mut Tally) -> (f64, f64) {
        let (mut replay_s, mut direct_s) = (0.0, 0.0);
        for (i, &domain) in self.workload.domains().iter().enumerate() {
            if domain.is_gpu() {
                continue;
            }
            let request = self.request(domain);
            let start = Instant::now();
            let replay = request.run();
            let mid = Instant::now();
            let direct = request.engine(SimEngine::Direct).run();
            direct_s += mid.elapsed().as_secs_f64();
            replay_s += (mid - start).as_secs_f64();
            tally.record(replay.is_ok());
            let ok = match (&replay, &direct) {
                (Ok(r), Ok(d)) => {
                    same_bits(r, d) && self.stored.get(i).is_none_or(|s| same_bits(s, d))
                }
                _ => false,
            };
            if !ok {
                eprintln!("engine check {domain}: Replay and Direct measurements differ");
            }
            tally.record(ok);
        }
        (replay_s, direct_s)
    }
}

fn add_snapshot(total: &mut StatsSnapshot, d: &StatsSnapshot) {
    total.qr_factorizations += d.qr_factorizations;
    total.qr_factorizations_avoided += d.qr_factorizations_avoided;
    total.lstsq_solves += d.lstsq_solves;
    total.lstsq_nanos += d.lstsq_nanos;
    total.spqrcp_nanos += d.spqrcp_nanos;
}

/// The funnel of one report, stage by stage, as (in, kept) pairs.
pub fn funnel(report: &AnalysisReport) -> [(usize, usize); 3] {
    let noise_kept = report.noise.kept().len();
    let represent_kept = report.representation.kept.len();
    [
        (report.noise.events.len(), noise_kept),
        (noise_kept, represent_kept),
        (report.selection.candidates, report.selection.events.len()),
    ]
}

/// Checks a report's funnel and metric shapes; on a traced analysis the
/// program's own funnel records must reconcile and agree with the report.
fn check_report(a: &Analysis, report: &AnalysisReport) -> bool {
    let noise = &report.noise;
    let [_, (kept, represented), (candidates, selected)] = funnel(report);
    let mut ok = noise.kept().len() + noise.discarded_noisy().len() + noise.discarded_zero().len()
        == noise.events.len()
        && represented + report.representation.rejected.len() == kept
        && candidates == represented
        && selected <= candidates
        // The define stage defines every signature, or none when nothing
        // was selected.
        && report.metrics.len() == if selected == 0 { 0 } else { a.signatures }
        && report.metrics.iter().all(|m| m.coefficients.iter().all(|c| c.is_finite()));
    if let Some(trace) = &a.trace {
        let records = trace.funnel_records();
        let stages = funnel(report);
        ok &= records.iter().all(|r| r.reconciles())
            && records.len() == 4
            && records.iter().zip(&stages).all(|(r, &(n, k))| r.events_in == n && r.kept == k);
    }
    if !ok {
        eprintln!("analyze {}: output check failed", a.domain);
    }
    ok
}

/// Selected event names, metric coefficients as bits, and funnel counts.
fn fingerprint(report: &AnalysisReport) -> u64 {
    let mut h = DefaultHasher::new();
    for e in &report.selection.events {
        e.name.hash(&mut h);
    }
    for m in &report.metrics {
        m.metric.hash(&mut h);
        for c in &m.coefficients {
            c.to_bits().hash(&mut h);
        }
    }
    funnel(report).hash(&mut h);
    h.finish()
}

/// Whether two measurement sets hold the same labels and the same bits.
fn same_bits(a: &MeasurementSet, b: &MeasurementSet) -> bool {
    a.domain == b.domain
        && a.events == b.events
        && a.point_labels == b.point_labels
        && a.runs.len() == b.runs.len()
        && a.runs.iter().zip(&b.runs).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| {
                    va.len() == vb.len()
                        && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
                })
        })
}
