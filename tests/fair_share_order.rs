//! Incremental-vs-full-resort oracle proptests for fair-share pending
//! ordering.
//!
//! The production path keeps the pending queue sorted under the
//! normalized usage key and repositions only dirty users' jobs; the
//! oracle (`set_fair_share_oracle_resort`) rebuilds and fully sorts the
//! queue on every pass, exactly like the pre-incremental code. Random
//! workloads drive arbitrary interleavings of usage recordings, decay,
//! inserts and removals through both paths — the complete `SimOutcome`
//! must be byte-identical, and the production path must get through the
//! whole run without a single full resort.
//!
//! A second property forces pathological half-lives (minutes against a
//! multi-day horizon, with work outstanding throughout) so the epoch
//! renormalization actually fires inside the run, not just in the
//! long-horizon goldens.

use proptest::prelude::*;
use serde::{Serialize, Value};
use std::sync::Mutex;
use sustain_hpc::prelude::*;
use sustain_hpc::scheduler::metrics::SimOutcome;
use sustain_hpc::scheduler::queue::QueueSet;
use sustain_hpc::scheduler::sim::{set_fair_share_oracle_resort, FairShareCfg};
use sustain_hpc::workload::synth::generate;

/// Outcome snapshot minus the `hot_path` counters (they measure work
/// done, which is exactly what differs between the two paths).
fn canonical(out: &SimOutcome) -> String {
    let mut v = out.to_value();
    if let Value::Object(fields) = &mut v {
        fields.retain(|(k, _)| k != "hot_path");
    }
    serde_json::to_string(&v).unwrap()
}

fn build(
    seed: u64,
    users: u32,
    arrivals: f64,
    max_nodes: u32,
    half_life_secs: f64,
    conservative: bool,
    queues: bool,
) -> (Vec<Job>, SimConfig) {
    let wl = WorkloadConfig {
        arrivals_per_hour: arrivals,
        max_nodes,
        users,
        checkpointable_fraction: 0.3,
        ..WorkloadConfig::default()
    };
    let jobs = generate(&wl, SimDuration::from_days(3.0), seed);
    let mut cfg = SimConfig::easy(Cluster::new(max_nodes * 2));
    if conservative {
        cfg.policy = Policy::ConservativeBackfill;
    }
    if queues {
        cfg.queues = Some(QueueSet::typical(max_nodes * 2));
    }
    cfg.fair_share = Some(FairShareCfg {
        half_life: SimDuration::from_secs(half_life_secs),
    });
    (jobs, cfg)
}

/// Runs the scenario through both ordering paths and returns their
/// outcomes. The oracle toggle is process-global, so the tests in this
/// binary serialize on one mutex while they flip it (otherwise one
/// test's "production" run can execute in a sibling's oracle mode), and
/// reset it before returning so a panicking assertion cannot leak
/// oracle mode into the sibling tests.
fn run_both(jobs: &[Job], cfg: &SimConfig) -> (SimOutcome, SimOutcome) {
    static ORACLE_TOGGLE: Mutex<()> = Mutex::new(());
    let _guard = ORACLE_TOGGLE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    set_fair_share_oracle_resort(false);
    let prod = simulate(jobs, cfg);
    set_fair_share_oracle_resort(true);
    let oracle = simulate(jobs, cfg);
    set_fair_share_oracle_resort(false);
    (prod, oracle)
}

proptest! {
    /// Normal-regime equivalence: day-scale half-lives over a 3-day
    /// horizon stay far from the renormalization threshold, so the
    /// incremental path must handle the entire run without one full
    /// resort — and land on the oracle's bytes exactly.
    #[test]
    fn incremental_ordering_matches_full_resort_oracle(
        seed in any::<u64>(),
        users in 2u32..40,
        arrivals in 4.0f64..10.0,
        max_nodes in 8u32..32,
        half_life_days in 0.5f64..10.0,
        conservative in any::<bool>(),
        queues in any::<bool>(),
    ) {
        let (jobs, cfg) = build(
            seed,
            users,
            arrivals,
            max_nodes,
            half_life_days * 86_400.0,
            conservative,
            queues,
        );
        let (prod, oracle) = run_both(&jobs, &cfg);
        prop_assert_eq!(canonical(&prod), canonical(&oracle));
        // The point of the PR: the production path never falls back to
        // a full resort in the normal regime...
        prop_assert_eq!(prod.hot_path.resorts_taken, 0);
        prop_assert_eq!(prod.hot_path.fs_renorms, 0);
        // ...while the oracle really exercised the other path (the
        // arrival range guarantees contention, hence queues to sort).
        prop_assert!(oracle.hot_path.resorts_taken > 0);
    }

    /// Pathological half-lives: minutes against a 3-day horizon push the
    /// normalization exponent through many renormalizations, each of
    /// which rescales every stored usage and re-sorts every pending
    /// user. Byte identity must survive every epoch change.
    #[test]
    fn renorm_regime_matches_oracle(
        seed in any::<u64>(),
        users in 2u32..12,
        half_life_secs in 60.0f64..900.0,
        conservative in any::<bool>(),
    ) {
        let (jobs, cfg) = build(seed, users, 5.0, 16, half_life_secs, conservative, false);
        let (prod, oracle) = run_both(&jobs, &cfg);
        prop_assert_eq!(canonical(&prod), canonical(&oracle));
        // 3 days / ≤15-minute half-life ≥ 288 half-lives of drift per
        // day: the 512-half-life renormalization epoch must roll over.
        prop_assert!(prod.hot_path.fs_renorms > 0);
    }
}
