//! Golden byte-identity tests for the simulator hot path.
//!
//! The snapshots under `tests/golden/` were generated from the
//! pre-optimization event loop (commit `688763d`) and pin the complete
//! `SimOutcome` — per-job records, energy, carbon, and budget-violation
//! seconds — for seeded scenarios covering every scheduling policy and
//! every hot-path feature (fair share, carbon gating, power budgets,
//! checkpointing, failures, malleability). Any hot-path optimization
//! must reproduce these bytes exactly: the prefix-sum trace index, the
//! incremental pending queue, and the scratch-buffer planning passes
//! are all required to be decision- and numerics-preserving.
//!
//! `easy_carbon_fairshare_budget` strands work once its budget series
//! ends; its snapshot was regenerated when stalled runs started ending
//! at their fixed point (`termination: Stalled`) instead of ticking an
//! idle cluster to the step cap. The other five drain, and gained only
//! their `termination` line.
//!
//! Regenerate (only when a change *intentionally* alters semantics) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_sim
//! ```
//!
//! The `hot_path` counter block is excluded from the snapshot: counters
//! describe how much work the loop did, not what it decided, and they
//! are exactly what a perf PR is expected to change.
//!
//! Every scenario replays at thread counts 1, 2 and 8 (plus whatever
//! `SUSTAIN_THREADS` asks for), so the snapshot additionally pins that
//! outcomes do not depend on the thread count.

use serde::{Serialize, Value};
use std::path::PathBuf;
use sustain_hpc::prelude::*;
use sustain_hpc::scheduler::metrics::SimOutcome;
use sustain_hpc::scheduler::queue::QueueSet;
use sustain_hpc::scheduler::sim::{FailureModel, FairShareCfg};
use sustain_hpc::sim_core::series::TimeSeries;
use sustain_hpc::workload::synth::generate;

/// Canonical snapshot: the full outcome minus the `hot_path` counter
/// block (absent pre-optimization, volatile by design afterwards).
fn canonical(out: &SimOutcome) -> String {
    let mut v = out.to_value();
    if let Value::Object(fields) = &mut v {
        fields.retain(|(k, _)| k != "hot_path");
    }
    let mut s = serde_json::to_string_pretty(&v).unwrap();
    s.push('\n');
    s
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Thread counts every golden replays at: 1, plus 2 and 8 above and
/// below typical core counts; `SUSTAIN_THREADS` (the CI matrix knob)
/// joins the list when it names something else.
fn replay_threads() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Some(n) = std::env::var(sustain_hpc::core::sweep::THREADS_ENV)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Compares (or, under `GOLDEN_REGEN=1`, rewrites) one scenario, at
/// every replay thread count.
///
/// The thread knobs are process-global and the golden tests run
/// concurrently in one binary, so a scenario may momentarily execute at
/// a sibling's thread count — which is exactly the property under test:
/// *any* interleaving must reproduce the same bytes.
fn check(name: &str, jobs: &[Job], cfg: &SimConfig) {
    if std::env::var("GOLDEN_REGEN").as_deref() == Ok("1") {
        sustain_hpc::core::sweep::set_threads(1);
        let got = canonical(&simulate(jobs, cfg));
        let path = golden_path(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    for threads in replay_threads() {
        sustain_hpc::core::sweep::set_threads(threads);
        let out = simulate(jobs, cfg);
        let got = canonical(&out);
        let path = golden_path(name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
        assert!(
            got == want,
            "scenario `{name}` at {threads} thread(s) diverged from its \
             golden snapshot ({} bytes vs {}); the optimization changed \
             simulator semantics. First differing line: {}",
            got.len(),
            want.len(),
            got.lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map(|(i, (a, b))| format!("#{}: got `{a}` want `{b}`", i + 1))
                .unwrap_or_else(|| "(prefix equal; lengths differ)".into()),
        );
    }
    // Fair-share scenarios additionally replay in full-resort oracle
    // mode: the incremental repositioning and the rebuild-and-sort
    // reference must land on the same bytes. The toggle is process-
    // global and tests run concurrently, so a sibling scenario may
    // momentarily replay in oracle mode too — equally byte-identical,
    // just slower.
    if cfg.fair_share.is_some() {
        sustain_hpc::scheduler::sim::set_fair_share_oracle_resort(true);
        let got = canonical(&simulate(jobs, cfg));
        sustain_hpc::scheduler::sim::set_fair_share_oracle_resort(false);
        let path = golden_path(name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
        assert!(
            got == want,
            "scenario `{name}` in full-resort oracle mode diverged from \
             its golden snapshot: the incremental pending order is not \
             equivalent to the full resort"
        );
    }
}

/// Deterministic synthetic trace: diurnal + weekly swing, 100–320 g/kWh,
/// hourly buckets. Long enough to cover queue drain past the horizon.
fn test_trace(days: usize) -> CarbonTrace {
    let n = days * 24 + 24 * 21;
    let values: Vec<f64> = (0..n)
        .map(|h| {
            let x = h as f64;
            200.0
                + 80.0 * (x * std::f64::consts::TAU / 24.0).sin()
                + 40.0 * (x * std::f64::consts::TAU / (24.0 * 7.0)).cos()
        })
        .collect();
    CarbonTrace::new(
        "golden-synthetic",
        TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values),
    )
}

/// Power budget alternating generous/tight 12-hour blocks so the
/// budget-shrink, suspend, and violation-accounting paths all run.
fn test_budget(days: usize, high_w: f64, low_w: f64) -> TimeSeries {
    let n = (days + 21) * 2;
    let values: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { high_w } else { low_w })
        .collect();
    TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(12.0), values)
}

fn workload(arrivals_per_hour: f64, max_nodes: u32, days: f64, seed: u64) -> Vec<Job> {
    let cfg = WorkloadConfig {
        arrivals_per_hour,
        max_nodes,
        checkpointable_fraction: 0.6,
        ..WorkloadConfig::default()
    };
    generate(&cfg, SimDuration::from_days(days), seed)
}

#[test]
fn golden_fcfs_plain() {
    let jobs = workload(4.0, 32, 10.0, 42);
    let cfg = SimConfig {
        policy: Policy::Fcfs,
        ..SimConfig::easy(Cluster::new(48))
    };
    check("fcfs_plain", &jobs, &cfg);
}

#[test]
fn golden_easy_carbon_fairshare_budget() {
    let jobs = workload(6.0, 48, 14.0, 7);
    let mut cfg = SimConfig::easy(Cluster::new(64));
    cfg.carbon_trace = Some(test_trace(14));
    cfg.power_budget = Some(test_budget(14, 40_000.0, 18_000.0));
    cfg.fair_share = Some(FairShareCfg::default());
    cfg.checkpoint = Some(CheckpointCfg::default());
    check("easy_carbon_fairshare_budget", &jobs, &cfg);
}

#[test]
fn golden_conservative_carbon() {
    let jobs = workload(5.0, 32, 7.0, 11);
    let mut cfg = SimConfig::easy(Cluster::new(48));
    cfg.policy = Policy::ConservativeBackfill;
    cfg.carbon_trace = Some(test_trace(7));
    check("conservative_carbon", &jobs, &cfg);
}

#[test]
fn golden_easy_failures_checkpoint() {
    let jobs = workload(3.0, 16, 7.0, 13);
    let mut cfg = SimConfig::easy(Cluster::new(32));
    cfg.failures = Some(FailureModel {
        node_mtbf: SimDuration::from_days(5.0),
        mttr: SimDuration::from_hours(6.0),
        seed: 99,
    });
    cfg.checkpoint = Some(CheckpointCfg::default());
    check("easy_failures_checkpoint", &jobs, &cfg);
}

#[test]
fn golden_checkpoint_hysteresis() {
    let jobs = workload(2.0, 16, 10.0, 5);
    let mut cfg = SimConfig::easy(Cluster::new(32));
    cfg.carbon_trace = Some(test_trace(10));
    cfg.checkpoint = Some(CheckpointCfg::default());
    cfg.fair_share = Some(FairShareCfg {
        half_life: SimDuration::from_days(2.0),
    });
    check("checkpoint_hysteresis", &jobs, &cfg);
}

#[test]
fn golden_carbon_aware_queues_malleable() {
    let wl = WorkloadConfig {
        arrivals_per_hour: 4.0,
        max_nodes: 32,
        malleable_fraction: 0.4,
        checkpointable_fraction: 0.5,
        ..WorkloadConfig::default()
    };
    let jobs = generate(&wl, SimDuration::from_days(7.0), 21);
    let mut cfg = SimConfig::easy(Cluster::new(48));
    cfg.policy = Policy::CarbonAware(CarbonAwareCfg::default());
    cfg.queues = Some(QueueSet::typical(48));
    cfg.carbon_trace = Some(test_trace(7));
    cfg.enable_malleability = true;
    cfg.power_budget = Some(test_budget(7, 30_000.0, 14_000.0));
    check("carbon_aware_queues_malleable", &jobs, &cfg);
}
