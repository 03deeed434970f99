//! The traced run: in-process replays of a run's requests, the span
//! tree they leave, and the per-layer metrics derived from it.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;

use sustain_hpc_core::cache::global_outcome_cache;
use sustain_hpc_core::sweep::effective_threads;
use sustain_scheduler::metrics::hot_path_totals;

use crate::http::Response;
use crate::load::Sample;
use crate::replay::{self, Recorder, Span};
use crate::server::Counters;
use crate::workload::{self, Plan, SWEEP_NODES};
use crate::{compare_body, m, mean, median, ratio, Args, Checks, Metric};

/// Names and units of the per-layer metrics, in print order.
const PER_LAYER: [(&str, &str); 31] = [
    ("server.transport_s", "s"),
    ("http.response_bytes", "bytes"),
    ("http.not_modified", "count"),
    ("api.handler_s", "s"),
    ("api.self_s", "s"),
    ("api.serialize_s", "s"),
    ("scenario.run_s", "s"),
    ("scenario.self_s", "s"),
    ("cache.outcome_hits", "count"),
    ("cache.outcome_misses", "count"),
    ("cache.outcome_hit_ratio", "ratio"),
    ("grid.synth_s", "s"),
    ("workload.synth_s", "s"),
    ("cache.trace_hit_ratio", "ratio"),
    ("cache.workload_hit_ratio", "ratio"),
    ("sim.simulate_s", "s"),
    ("sim.simulate_spare_s", "s"),
    ("sim.events", "count"),
    ("sim.schedule_passes", "count"),
    ("sim.schedule_skips", "count"),
    ("sim.pass_skip_ratio", "ratio"),
    ("sim.spec_planned", "count"),
    ("sim.spec_hits", "count"),
    ("sim.spec_hit_ratio", "ratio"),
    ("accounting.profile_s", "s"),
    ("sweep.run_s", "s"),
    ("sweep.run_spare_s", "s"),
    ("sweep.self_s", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.memo_collapsed", "count"),
    ("trace.overhead_s", "s"),
];

/// Requests of a 2-client workload re-run with a spare thread, to
/// measure what the spare thread does: speculative planning in
/// `run_conservative`, the sweep fan-out in `sweep_conservative`.
const SPARE_THREAD_PROBE: usize = 6;

/// The traced run: after the server phase, replays the timed requests
/// in-process twice from empty caches — once through the program's
/// handlers (untraced), once layer by layer under spans — checks both
/// against the server, and derives the per-layer metrics.
pub fn trace_run(
    checks: &mut Checks,
    args: &Args,
    plan: &Plan,
    samples: &[Sample],
    d: &Counters,
    out: &Path,
) -> Result<Vec<Metric>, String> {
    let c = |k: &str| d.get(k).copied().unwrap_or(0);
    let all: Vec<usize> = (0..plan.timed.len()).collect();

    // With two clients, the server ran every request while the other
    // worker held the rest of the thread budget; the replays hold it too,
    // so that each request runs as it did on the server.
    let busy = (plan.workload.clients() > 1).then(|| {
        rayon::try_lease_worker().expect("the replay starts with the whole thread budget free")
    });

    // Untraced replay.
    warm(plan)?;
    let events_before = hot_path_totals().events;
    let outcome_before = global_outcome_cache().stats();
    let mut untraced = Vec::with_capacity(all.len());
    for &i in &all {
        let handled = replay::handle(&plan.timed[i])?;
        compare_body(
            checks,
            &plan.timed[i],
            &samples[i],
            &handled,
            "untraced in-process",
        );
        untraced.push(handled.handler_s);
    }
    let outcome_after = global_outcome_cache().stats();
    checks.expect_eq(
        "untraced replay events vs server /stats",
        hot_path_totals().events - events_before,
        c("hot_path.events"),
    );
    checks.expect_eq(
        "untraced replay outcome-cache hits vs server /stats",
        outcome_after.hits - outcome_before.hits,
        c("outcome_cache.hits"),
    );

    // Traced replay.
    let (tree, traced, events) = traced_replay(checks, plan, samples, &all)?;
    checks.expect_eq(
        "traced replay sim.events vs server /stats hot_path.events",
        events,
        c("hot_path.events"),
    );
    let path = out.join(format!(
        "trace-{}-{}.jsonl",
        plan.workload.name(),
        args.seed
    ));
    replay::write_spans(&tree.spans, &path)?;
    println!(
        "  spans: {} written to {}",
        tree.spans.len(),
        path.display()
    );
    tree.print();
    drop(busy);

    // What a spare thread does, on a seeded sample of the requests.
    let probe = if plan.workload.clients() > 1 {
        let ids = workload::sample_ids(args.seed, plan.timed.len(), SPARE_THREAD_PROBE);
        let (probe, _, _) = traced_replay(checks, plan, samples, &ids)?;
        println!("  spare-thread probe of requests {ids:?}:");
        probe.print();
        Some(probe)
    } else {
        None
    };
    let spare = probe.as_ref().unwrap_or(&tree);

    let threads = effective_threads() as f64;
    let efficiency: Vec<f64> = spare
        .named("sweep.run")
        .map(|s| spare.kids(s).iter().map(|k| k.dur()).sum::<f64>() / (threads * s.dur()))
        .collect();
    let collapsed: usize = tree
        .named("sweep.run")
        .map(|s| SWEEP_NODES.len() - tree.kids(s).len())
        .sum();
    let transport: Vec<f64> = samples
        .iter()
        .zip(&untraced)
        .filter(|(s, _)| s.response.is_ok())
        .map(|(s, u)| s.latency_s - u)
        .collect();
    let ok: Vec<&Response> = samples
        .iter()
        .filter_map(|s| s.response.as_ref().ok())
        .collect();
    let bodies: Vec<f64> = ok
        .iter()
        .filter(|r| r.status == 200)
        .map(|r| r.body_len as f64)
        .collect();
    let passes = c("hot_path.schedule_passes");
    let skips = c("hot_path.schedule_skips");
    let spec_planned = spare.spec_planned;
    let spec_hits = spare.spec_hits;
    let hit_ratio = |cache: &str| {
        let hits = c(&format!("{cache}.hits"));
        ratio(hits, hits + c(&format!("{cache}.misses")))
    };

    let values: BTreeMap<&str, f64> = [
        ("server.transport_s", median(&transport)),
        ("http.response_bytes", mean(&bodies)),
        (
            "http.not_modified",
            ok.iter().filter(|r| r.status == 304).count() as f64,
        ),
        ("api.handler_s", mean(&untraced)),
        ("api.self_s", mean(&tree.selfs("api.handler", false))),
        ("api.serialize_s", mean(&tree.durs("api.serialize"))),
        ("scenario.run_s", mean(&tree.cold_durs("scenario.run"))),
        ("scenario.self_s", mean(&tree.selfs("scenario.run", true))),
        ("cache.outcome_hits", c("outcome_cache.hits") as f64),
        ("cache.outcome_misses", c("outcome_cache.misses") as f64),
        ("cache.outcome_hit_ratio", hit_ratio("outcome_cache")),
        ("grid.synth_s", mean(&tree.durs("grid.synth"))),
        ("workload.synth_s", mean(&tree.durs("workload.synth"))),
        ("cache.trace_hit_ratio", hit_ratio("trace_cache")),
        ("cache.workload_hit_ratio", hit_ratio("workload_cache")),
        ("sim.simulate_s", mean(&tree.durs("sim.simulate"))),
        ("sim.simulate_spare_s", mean(&spare.durs("sim.simulate"))),
        ("sim.events", c("hot_path.events") as f64),
        ("sim.schedule_passes", passes as f64),
        ("sim.schedule_skips", skips as f64),
        ("sim.pass_skip_ratio", ratio(skips, passes + skips)),
        ("sim.spec_planned", spec_planned as f64),
        ("sim.spec_hits", spec_hits as f64),
        ("sim.spec_hit_ratio", ratio(spec_hits, spec_planned)),
        (
            "accounting.profile_s",
            mean(&tree.durs("accounting.profile")),
        ),
        ("sweep.run_s", mean(&tree.durs("sweep.run"))),
        ("sweep.run_spare_s", mean(&spare.durs("sweep.run"))),
        ("sweep.self_s", mean(&tree.selfs("sweep.run", false))),
        ("sweep.parallel_efficiency", mean(&efficiency)),
        ("sweep.memo_collapsed", collapsed as f64),
        ("trace.overhead_s", mean(&traced) - mean(&untraced)),
    ]
    .into_iter()
    .collect();
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| m(name, values[name], unit))
        .collect())
}

/// Empties the caches and sends the warm-up list in-process, as a freshly
/// spawned server receives it.
fn warm(plan: &Plan) -> Result<(), String> {
    replay::clear_caches();
    for r in &plan.warmup {
        replay::handle(r)?;
    }
    Ok(())
}

/// Replays the timed requests `ids` layer by layer under spans, from
/// freshly warmed caches, checking every body against the server's.
/// Returns the span tree, each request's handler time and the events
/// its simulations dispatched.
fn traced_replay(
    checks: &mut Checks,
    plan: &Plan,
    samples: &[Sample],
    ids: &[usize],
) -> Result<(Tree, Vec<f64>, u64), String> {
    warm(plan)?;
    let rec = Recorder::new();
    let mut handler_s = Vec::with_capacity(ids.len());
    for &i in ids {
        let handled = replay::traced(&rec, &plan.timed[i])?;
        compare_body(
            checks,
            &plan.timed[i],
            &samples[i],
            &handled,
            "traced in-process",
        );
        handler_s.push(handled.handler_s);
    }
    let events = rec.events.load(Ordering::Relaxed);
    Ok((Tree::new(rec), handler_s, events))
}

/// The spans of one replay, indexed by parent.
struct Tree {
    spans: Vec<Span>,
    children: BTreeMap<u64, Vec<usize>>,
    spec_planned: u64,
    spec_hits: u64,
}

impl Tree {
    fn new(rec: Recorder) -> Tree {
        let spec_planned = rec.spec_planned.load(Ordering::Relaxed);
        let spec_hits = rec.spec_hits.load(Ordering::Relaxed);
        let spans = rec.into_spans();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        Tree {
            spans,
            children,
            spec_planned,
            spec_hits,
        }
    }

    fn kids(&self, s: &Span) -> Vec<&Span> {
        self.children
            .get(&s.id)
            .map(|ix| ix.iter().map(|&i| &self.spans[i]).collect())
            .unwrap_or_default()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn durs(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::dur).collect()
    }

    /// Durations of the spans that called layers below them: for
    /// `scenario.run`, the outcome-cache misses.
    fn cold_durs(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .filter(|s| !self.kids(s).is_empty())
            .map(Span::dur)
            .collect()
    }

    fn selfs(&self, name: &str, cold_only: bool) -> Vec<f64> {
        self.named(name)
            .filter(|s| !cold_only || !self.kids(s).is_empty())
            .map(|s| replay::self_time(s, &self.kids(s)))
            .collect()
    }

    /// Per span name: calls, mean inclusive time, mean self time.
    fn print(&self) {
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur();
            row.2 += replay::self_time(s, &self.kids(s));
        }
        println!(
            "  {:<20} {:>7} {:>14} {:>14}",
            "span", "calls", "mean_s", "mean_self_s"
        );
        for (name, (n, total, own)) in rows {
            println!(
                "  {name:<20} {n:>7} {:>14.9} {:>14.9}",
                total / n as f64,
                own / n as f64
            );
        }
    }
}
