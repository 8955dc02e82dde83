//! Determinism guarantees: identical configurations must reproduce every
//! measurement and every analysis artifact bit-for-bit — the property that
//! makes the `repro` harness trustworthy.

use catalyze::basis;
use catalyze::pipeline::{AnalysisConfig, AnalysisRequest};
use catalyze::signature;
use catalyze_cat::{
    measure_branch, measure_cpu_flops, measure_dcache, measure_dstore, measure_dtlb,
    measure_gpu_flops, MeasurementSet, RunnerConfig,
};
use catalyze_sim::{mi250x_like, sapphire_rapids_like};

fn cfg() -> RunnerConfig {
    let mut c = RunnerConfig::fast_test();
    c.flops_trips = 128;
    c.branch_iterations = 256;
    c
}

#[test]
fn branch_measurements_bitwise_reproducible() {
    let set = sapphire_rapids_like();
    let a = measure_branch(&set, &cfg(), &catalyze_obs::NoopObserver);
    let b = measure_branch(&set, &cfg(), &catalyze_obs::NoopObserver);
    assert_eq!(a, b);
}

#[test]
fn cpu_flops_measurements_bitwise_reproducible() {
    let set = sapphire_rapids_like();
    let a = measure_cpu_flops(&set, &cfg(), &catalyze_obs::NoopObserver);
    let b = measure_cpu_flops(&set, &cfg(), &catalyze_obs::NoopObserver);
    assert_eq!(a, b);
}

#[test]
fn gpu_measurements_bitwise_reproducible() {
    let set = mi250x_like(2);
    let a = measure_gpu_flops(&set, &cfg(), &catalyze_obs::NoopObserver);
    let b = measure_gpu_flops(&set, &cfg(), &catalyze_obs::NoopObserver);
    assert_eq!(a, b);
}

#[test]
fn different_pmu_seed_changes_noisy_reads_only() {
    let set = sapphire_rapids_like();
    let mut c1 = cfg();
    let mut c2 = cfg();
    c1.pmu.seed = 1;
    c2.pmu.seed = 2;
    let a = measure_branch(&set, &c1, &catalyze_obs::NoopObserver);
    let b = measure_branch(&set, &c2, &catalyze_obs::NoopObserver);
    // Architectural counters identical...
    let cond = a.event_index("BR_INST_RETIRED:COND").unwrap();
    assert_eq!(a.runs[0][cond], b.runs[0][cond]);
    // ...noisy ones differ.
    let cycles = a.event_index("CPU_CLK_UNHALTED:THREAD").unwrap();
    assert_ne!(a.runs[0][cycles], b.runs[0][cycles]);
}

#[test]
fn analysis_is_a_pure_function_of_measurements() {
    let set = sapphire_rapids_like();
    let ms = measure_branch(&set, &cfg(), &catalyze_obs::NoopObserver);
    let basis = basis::branch_basis();
    let signatures = signature::branch_signatures();
    let run = || {
        AnalysisRequest::new()
            .domain("branch")
            .events(&ms.events)
            .runs(&ms.runs)
            .basis(&basis)
            .signatures(&signatures)
            .config(AnalysisConfig::branch())
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.selection.events.iter().map(|e| &e.name).collect::<Vec<_>>(),
        b.selection.events.iter().map(|e| &e.name).collect::<Vec<_>>()
    );
    for (x, y) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(x.coefficients, y.coefficients, "{}", x.metric);
        assert_eq!(x.error, y.error);
    }
}

/// FNV-1a (64-bit) over a measurement set's shape and the `to_bits()` of
/// every reading, in `[run][event][point]` order. Written out here rather
/// than using `DefaultHasher`, whose output may change between Rust
/// releases.
fn fingerprint(ms: &MeasurementSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(ms.runs.len() as u64);
    for run in &ms.runs {
        feed(run.len() as u64);
        for event in run {
            feed(event.len() as u64);
            for &x in event {
                feed(x.to_bits());
            }
        }
    }
    h
}

/// Pins every domain's `fast_test` measurements bit for bit. Any change to
/// the simulator, the counter scheduler or the noise streams moves these
/// fingerprints; a pure refactor or speed-up of the read path must not.
#[test]
fn measurement_sets_match_pinned_fingerprints() {
    let cfg = RunnerConfig::fast_test();
    let cpu = sapphire_rapids_like();
    let gpu = mi250x_like(cfg.gpu_devices);
    let obs = &catalyze_obs::NoopObserver;
    let got = [
        ("cpu-flops", fingerprint(&measure_cpu_flops(&cpu, &cfg, obs))),
        ("branch", fingerprint(&measure_branch(&cpu, &cfg, obs))),
        ("dcache", fingerprint(&measure_dcache(&cpu, &cfg, obs))),
        ("dtlb", fingerprint(&measure_dtlb(&cpu, &cfg, obs))),
        ("dstore", fingerprint(&measure_dstore(&cpu, &cfg, obs))),
        ("gpu-flops", fingerprint(&measure_gpu_flops(&gpu, &cfg, obs))),
    ];
    let expected = [
        ("cpu-flops", 0x50ec_e2fd_599e_b64d),
        ("branch", 0xa7ff_30ad_43af_6461),
        ("dcache", 0x5403_bf6f_52eb_1c46),
        ("dtlb", 0x4f7e_39e5_6317_689c),
        ("dstore", 0x3030_6e73_cc5e_d673),
        ("gpu-flops", 0x40ef_2aa9_9c11_7cf2),
    ];
    for (domain, fp) in &got {
        println!("{domain}: {fp:#018x}");
    }
    assert_eq!(got, expected, "measurements moved");
}
