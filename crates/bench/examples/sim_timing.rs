//! Regenerates `BENCH_sim.json`: every `sim_loop` scenario at full
//! scale, timed at 1 and 2 worker threads with warm-up plus
//! median-of-samples wall times, alongside the hot-path counters the
//! simulator reports and the speedup against the recorded pre-PR
//! baselines (`PRE_PR_WALL_S`). One JSON object per (scenario, threads)
//! pair. A scenario whose semantics changed since its baseline gets a
//! null speedup and the reason in `semantics_change`.
//!
//! ```text
//! cargo run --release -p sustain-bench --example sim_timing > BENCH_sim.json
//! ```
//!
//! Outcomes are byte-identical at every thread count (goldens +
//! proptests lock this); only `wall_s` may differ between the two rows
//! of one scenario. `termination` says how each run ended: a `Stalled`
//! run stopped at its fixed point, a `StepCap` one at the safety cap.

use serde::Serialize;
use std::time::Instant;
use sustain_bench::simloop::{pre_pr_wall_s, scenarios, semantics_change, Scale};
use sustain_scheduler::metrics::{SimOutcome, Termination};
use sustain_scheduler::sim::simulate;

#[derive(Serialize)]
struct Row {
    scenario: &'static str,
    threads: usize,
    cpu_cores: usize,
    wall_s: f64,
    samples: usize,
    pre_pr_wall_s: f64,
    speedup_vs_pre_pr: Option<f64>,
    semantics_change: Option<&'static str>,
    records: usize,
    unfinished: usize,
    termination: Termination,
    events: u64,
    schedule_passes: u64,
    schedule_skips: u64,
    resorts_taken: u64,
    resorts_skipped: u64,
    trace_bucket_hits: u64,
    trace_bucket_misses: u64,
    scratch_grows: u64,
    fs_repositions: u64,
    fs_renorms: u64,
}

/// Warm-up pass, then repeated samples (median reported): until 2 s of
/// data with at least 3 samples, capped at 25. Heavy scenarios land at
/// the 3-sample floor, the sub-10 ms ones at the 25-sample cap.
fn time_scenario(
    jobs: &[sustain_workload::job::Job],
    cfg: &sustain_scheduler::sim::SimConfig,
) -> (f64, usize, SimOutcome) {
    let warm = simulate(jobs, cfg);
    let mut samples = Vec::new();
    let budget = Instant::now();
    while samples.len() < 25 && (samples.len() < 3 || budget.elapsed().as_secs_f64() < 2.0) {
        let t0 = Instant::now();
        let out = simulate(jobs, cfg);
        samples.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], samples.len(), warm)
}

fn main() {
    let corpus = scenarios(Scale::Full);
    let cpu_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for threads in [1usize, 2] {
        sustain_hpc_core::sweep::set_threads(threads);
        for sc in &corpus {
            let (wall_s, samples, out) = time_scenario(&sc.jobs, &sc.cfg);
            let baseline = pre_pr_wall_s(sc.name).expect("scenario has a pre-PR baseline");
            let hp = &out.hot_path;
            let note = semantics_change(sc.name);
            rows.push(Row {
                scenario: sc.name,
                threads,
                cpu_cores,
                wall_s,
                samples,
                pre_pr_wall_s: baseline,
                speedup_vs_pre_pr: note.is_none().then(|| baseline / wall_s),
                semantics_change: note,
                records: out.records.len(),
                unfinished: out.unfinished,
                termination: out.termination,
                events: hp.events,
                schedule_passes: hp.schedule_passes,
                schedule_skips: hp.schedule_skips,
                resorts_taken: hp.resorts_taken,
                resorts_skipped: hp.resorts_skipped,
                trace_bucket_hits: hp.trace_bucket_hits,
                trace_bucket_misses: hp.trace_bucket_misses,
                scratch_grows: hp.scratch_grows,
                fs_repositions: hp.fs_repositions,
                fs_renorms: hp.fs_renorms,
            });
        }
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&rows).expect("serializable")
    );
}
