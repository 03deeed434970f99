//! Cap-invariance proptests: a reported number is a property of the
//! scenario, not of the `max_steps` safety cap.
//!
//! Each property builds a scenario that is guaranteed to strand work —
//! a job the post-series power budget can never admit, or a
//! checkpointable job suspended under a carbon spike that never ends —
//! and runs it at caps X and 10X. The run must reach its fixed point
//! (`Termination::Stalled`) well below 10X, and whenever the run at X
//! did not hit the cap its complete outcome, work counters included,
//! must be byte-identical to the run at 10X. Before stalled runs ended
//! at their fixed point, both runs ticked an idle cluster to their cap
//! and reported idle energy and carbon proportional to it.
//!
//! The budget-tail property also pads the budget series with more of
//! its last value: that only moves the stall later, so the job records
//! must not change — a check that the stall really is a fixed point.

use proptest::prelude::*;
use serde::Serialize;
use sustain_hpc::prelude::*;
use sustain_hpc::scheduler::metrics::{SimOutcome, Termination};
use sustain_hpc::scheduler::sim::{FailureModel, FairShareCfg};
use sustain_hpc::sim_core::series::TimeSeries;
use sustain_hpc::workload::synth::generate;

/// The smaller cap; every scenario below needs a few thousand events.
const CAP: u64 = 20_000;

/// The whole outcome, work counters included: below the cap the two
/// runs dispatch exactly the same events.
fn canonical(out: &SimOutcome) -> String {
    serde_json::to_string(&out.to_value()).unwrap()
}

/// How the scenario strands work once its series run out.
#[derive(Clone, Copy)]
enum Tail {
    /// The budget's last value is below one queued job's power.
    Budget,
    /// The carbon trace ends on a spike above the suspend threshold, so
    /// suspended jobs never resume.
    Suspend,
}

struct Knobs {
    seed: u64,
    days: f64,
    max_nodes: u32,
    policy: usize,
    failures: bool,
    half_life_secs: Option<f64>,
    tail: Tail,
}

fn build(k: &Knobs) -> (Vec<Job>, SimConfig) {
    let wl = WorkloadConfig {
        arrivals_per_hour: 4.0,
        max_nodes: k.max_nodes,
        users: 8,
        checkpointable_fraction: 0.5,
        ..WorkloadConfig::default()
    };
    let mut jobs = generate(&wl, SimDuration::from_days(k.days), k.seed);
    let nodes = k.max_nodes * 2;
    // Both series cover the workload plus two days of drain.
    let series_hours = (k.days.ceil() as usize + 2) * 24;
    let series_end = SimTime::from_hours(series_hours as f64);
    let mut ci: Vec<f64> = (0..series_hours)
        .map(|h| 200.0 + 80.0 * (h as f64 * std::f64::consts::TAU / 24.0).sin())
        .collect();
    let mut cfg = SimConfig::easy(Cluster::new(nodes));
    cfg.policy = match k.policy {
        0 => Policy::Fcfs,
        1 => Policy::EasyBackfill,
        2 => Policy::ConservativeBackfill,
        _ => Policy::CarbonAware(CarbonAwareCfg::default()),
    };
    cfg.checkpoint = Some(CheckpointCfg::default());
    match k.tail {
        Tail::Budget => {
            // Alternating 12-hour blocks, then a last day at 100 W per
            // node; the stranded job draws 250 W per cluster node.
            let per_node = |w: f64| w * nodes as f64;
            let blocks = series_hours / 12;
            let budget: Vec<f64> = (0..blocks)
                .map(|i| match i {
                    _ if i + 2 >= blocks => per_node(100.0),
                    _ if i % 2 == 0 => per_node(400.0),
                    _ => per_node(250.0),
                })
                .collect();
            cfg.power_budget = Some(TimeSeries::new(
                SimTime::ZERO,
                SimDuration::from_hours(12.0),
                budget,
            ));
            jobs.push(
                JobBuilder::new(
                    u64::MAX,
                    series_end - SimDuration::from_hours(24.0),
                    nodes / 2,
                    SimDuration::from_hours(2.0),
                )
                .build(),
            );
        }
        Tail::Suspend => {
            // The last day spikes to twice the base level — above the
            // suspend threshold (1.15 × mean) for good, since the trace
            // holds its last value.
            for v in &mut ci[series_hours - 24..] {
                *v = 400.0;
            }
            jobs.push(
                JobBuilder::new(
                    u64::MAX,
                    series_end - SimDuration::from_hours(30.0),
                    1,
                    SimDuration::from_hours(200.0),
                )
                .checkpointable(true)
                .build(),
            );
        }
    }
    cfg.carbon_trace = Some(CarbonTrace::new(
        "cap-invariance",
        TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), ci),
    ));
    if k.failures {
        cfg.failures = Some(FailureModel {
            node_mtbf: SimDuration::from_days(20.0),
            mttr: SimDuration::from_hours(6.0),
            seed: k.seed,
        });
    }
    cfg.fair_share = k.half_life_secs.map(|secs| FairShareCfg {
        half_life: SimDuration::from_secs(secs),
    });
    (jobs, cfg)
}

fn run(jobs: &[Job], cfg: &SimConfig, cap: u64) -> SimOutcome {
    let mut cfg = cfg.clone();
    cfg.max_steps = cap;
    simulate(jobs, &cfg)
}

/// Whether the run must reach a provable fixed point. Conservative
/// backfilling with node failures is the exception: there a failed node
/// can shift a power-blocked job's reservation and start another job,
/// so the run only stalls once every pending job is power-blocked on its
/// own, and may instead end, typed, at the cap.
fn must_stall(cfg: &SimConfig) -> bool {
    !(cfg.failures.is_some() && matches!(cfg.policy, Policy::ConservativeBackfill))
}

/// Runs at X and 10X: the 10X run must stall (see [`must_stall`]), and
/// an X run that did not hit the cap must match it byte for byte.
fn check_cap_invariance(jobs: &[Job], cfg: &SimConfig) -> Result<SimOutcome, TestCaseError> {
    let small = run(jobs, cfg, CAP);
    let big = run(jobs, cfg, CAP * 10);
    let stalled = matches!(big.termination, Termination::Stalled { .. });
    prop_assert!(
        stalled || !must_stall(cfg),
        "expected a stall below {} events, got {:?} after {}",
        CAP * 10,
        big.termination,
        big.hot_path.events
    );
    prop_assert!(big.unfinished > 0);
    if small.termination != Termination::StepCap {
        prop_assert_eq!(canonical(&small), canonical(&big));
    }
    Ok(big)
}

proptest! {
    /// A budget that ends below a queued job's power strands it (and,
    /// under EASY, whatever its reservation blocks). Every policy, with
    /// and without node failures.
    #[test]
    fn power_budget_tails_are_cap_invariant(
        seed in any::<u64>(),
        days in 2.0f64..4.0,
        max_nodes in 8u32..24,
        policy in 0usize..4,
        failures in any::<bool>(),
    ) {
        let knobs = Knobs {
            seed,
            days,
            max_nodes,
            policy,
            failures,
            half_life_secs: None,
            tail: Tail::Budget,
        };
        let (jobs, cfg) = build(&knobs);
        let out = check_cap_invariance(&jobs, &cfg)?;
        if out.termination == Termination::StepCap {
            return Ok(());
        }
        // Two more days at the last budget value only delay the stall.
        let mut padded = cfg.clone();
        let budget = padded.power_budget.as_mut().unwrap();
        let last = *budget.values().last().unwrap();
        let mut values = budget.values().to_vec();
        values.extend([last; 4]);
        *budget = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(12.0), values);
        let later = run(&jobs, &padded, CAP * 10);
        prop_assert!(matches!(later.termination, Termination::Stalled { .. }));
        prop_assert_eq!(later.unfinished, out.unfinished);
        prop_assert!(later.records == out.records, "padding the budget changed the records");
    }

    /// A checkpointable job running into a carbon spike that outlasts
    /// the trace is suspended and never resumes.
    #[test]
    fn checkpoint_suspend_tails_are_cap_invariant(
        seed in any::<u64>(),
        days in 2.0f64..4.0,
        max_nodes in 8u32..24,
        policy in 0usize..4,
        failures in any::<bool>(),
    ) {
        let knobs = Knobs {
            seed,
            days,
            max_nodes,
            policy,
            failures,
            half_life_secs: None,
            tail: Tail::Suspend,
        };
        let (jobs, cfg) = build(&knobs);
        check_cap_invariance(&jobs, &cfg)?;
    }

    /// Fair share with minute half-lives: hundreds of half-lives of
    /// decay and several usage-epoch renormalizations pass while work is
    /// outstanding, and more while the stranded tail waits.
    #[test]
    fn minute_half_life_fair_share_is_cap_invariant(
        seed in any::<u64>(),
        days in 2.0f64..4.0,
        max_nodes in 8u32..24,
        policy in 0usize..4,
        half_life_secs in 60.0f64..900.0,
        suspend_tail in any::<bool>(),
    ) {
        let knobs = Knobs {
            seed,
            days,
            max_nodes,
            policy,
            failures: false,
            half_life_secs: Some(half_life_secs),
            tail: if suspend_tail { Tail::Suspend } else { Tail::Budget },
        };
        let (jobs, cfg) = build(&knobs);
        check_cap_invariance(&jobs, &cfg)?;
    }
}
