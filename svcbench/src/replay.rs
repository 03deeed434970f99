//! In-process replays of a run's requests: through the program's public
//! handlers as they are (the reference for every body the server sent),
//! and through the same layers called one by one under spans.
//!
//! The spans are recorded here, around calls into each layer's public
//! functions, because the program has no spans of its own. The traced
//! replay therefore repeats the composition of `api::run_body`,
//! `scenario::run_with_ctl` and `api::sweep_body` call for call; every
//! body it renders is checked against the server's, so a replay that no
//! longer does what the program does fails the run instead of
//! reporting numbers for other work.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sustain_grid::green::GreenDetector;
use sustain_grid::synth::{generate_calibrated_arc, global_trace_cache};
use sustain_hpc_core::cache::{global_outcome_cache, OutcomeKey};
use sustain_hpc_core::scenario::{Scenario, ScenarioResult};
use sustain_hpc_core::sweep::try_sweep_memo_with_ctl;
use sustain_scheduler::sim::{simulate_with_ctl, SimConfig};
use sustain_service::api::{self, SweepPointOutcome, SweepRequest, SweepResponse, SweepRow};
use sustain_sim_core::ctl::RunCtl;
use sustain_sim_core::error::{SimError, Validate};
use sustain_sim_core::time::{SimDuration, SimTime};
use sustain_sim_core::units::Power;
use sustain_telemetry::accounting::{profile_job, site_account, JobCarbonProfile};
use sustain_workload::synth::{generate_arc, global_workload_cache};

use crate::digest::{body_digest, BodyDigest};
use crate::workload::{parse_run, Kind, Request};

/// What one request produced in-process.
pub struct Handled {
    /// Handler wall time, seconds.
    pub handler_s: f64,
    /// Body digest; `None` for a conditional request, which has no body.
    pub digest: Option<BodyDigest>,
}

/// Empties the process-wide caches so a replay starts as a freshly
/// spawned server does. Their counters keep running.
pub fn clear_caches() {
    global_outcome_cache().clear();
    global_trace_cache().clear();
    global_workload_cache().clear();
}

/// Runs `req` through the program's own handlers, exactly as the server
/// routes it.
pub fn handle(req: &Request) -> Result<Handled, String> {
    let started = Instant::now();
    let body = match req.kind {
        Kind::Conditional => {
            let tag = api::run_etag(&parse_run(&req.body));
            if tag != req.etag {
                return Err(format!("request {}: api::run_etag changed", req.id));
            }
            None
        }
        Kind::Cold | Kind::Hot => Some(api::run_body(&parse_run(&req.body))),
        Kind::Sweep => Some(api::sweep_body(&parse_sweep(&req.body))),
    }
    .transpose()
    .map_err(|e| e.to_string())?;
    Ok(Handled {
        handler_s: started.elapsed().as_secs_f64(),
        digest: body.map(|b| body_digest(b.as_bytes())),
    })
}

fn parse_sweep(body: &str) -> SweepRequest {
    serde_json::from_str(body).expect("generated /sweep bodies are valid SweepRequests")
}

/// One span: a timed call into a layer.
pub struct Span {
    pub id: u64,
    /// Id of the span whose call made this one; 0 for a request's root.
    pub parent: u64,
    /// Id of the request the span belongs to.
    pub req: usize,
    pub name: &'static str,
    /// Seconds since the replay started.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans kept in memory for the whole replay, written out at the end.
pub struct Recorder {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Events dispatched by every simulation the replay ran.
    pub events: AtomicU64,
    /// Speculative slots planned, and those used as-is, in the replay.
    /// The replay runs one request at a time, so its simulations always
    /// have a spare thread to speculate on.
    pub spec_planned: AtomicU64,
    pub spec_hits: AtomicU64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            events: AtomicU64::new(0),
            spec_planned: AtomicU64::new(0),
            spec_hits: AtomicU64::new(0),
        }
    }

    /// Times `f` as span `name`; `f` gets the new span's id to pass to
    /// the calls it makes.
    fn span<T>(&self, name: &'static str, req: usize, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("a replay thread panicked while recording")
            .push(Span {
                id,
                parent,
                req,
                name,
                start,
                end,
            });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("replay finished");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Writes spans as JSON lines: `id`, `parent`, `req`, `name`, `start_s`,
/// `end_s`.
pub fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}\n",
            s.id, s.parent, s.req, s.name, s.start, s.end
        ));
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs `req` through the layers one call at a time, each under a span.
/// The root span is `api.handler`.
pub fn traced(rec: &Recorder, req: &Request) -> Result<Handled, String> {
    let id = req.id;
    let started = Instant::now();
    let body = rec.span(
        "api.handler",
        id,
        0,
        |h| -> Result<Option<String>, String> {
            match req.kind {
                Kind::Conditional => {
                    let tag = rec.span("api.etag", id, h, |_| api::run_etag(&parse_run(&req.body)));
                    if tag != req.etag {
                        return Err(format!("request {id}: api::run_etag changed"));
                    }
                    Ok(None)
                }
                Kind::Cold | Kind::Hot => {
                    let (scenario, ctl) = rec
                        .span("api.parse", id, h, |_| {
                            let run = parse_run(&req.body);
                            let scenario = run.to_scenario()?;
                            scenario.validate()?;
                            Ok::<_, SimError>((scenario, api::request_ctl(run.timeout_ms, None)))
                        })
                        .map_err(|e| e.to_string())?;
                    let result = rec
                        .span("scenario.run", id, h, |s| {
                            run_scenario(rec, id, s, &scenario, &ctl)
                        })
                        .map_err(|e| e.to_string())?;
                    let body = rec
                        .span("api.serialize", id, h, |_| {
                            serde_json::to_string_pretty(&result)
                        })
                        .map_err(|e| e.to_string())?;
                    Ok(Some(body))
                }
                Kind::Sweep => {
                    let (sweep, scenarios, ctl) = rec
                        .span("api.parse", id, h, |_| sweep_scenarios(&req.body))
                        .map_err(|e| e.to_string())?;
                    let results = rec
                        .span("sweep.run", id, h, |s| {
                            try_sweep_memo_with_ctl(&scenarios, &ctl, |scenario| {
                                rec.span("scenario.run", id, s, |p| {
                                    run_scenario(rec, id, p, scenario, &ctl)
                                })
                                .map(|r| sweep_row(scenario.seed, r))
                            })
                        })
                        .map_err(|e| e.to_string())?;
                    let body = rec
                        .span("api.serialize", id, h, |_| {
                            serde_json::to_string_pretty(&sweep_response(&sweep, results))
                        })
                        .map_err(|e| e.to_string())?;
                    Ok(Some(body))
                }
            }
        },
    )?;
    Ok(Handled {
        handler_s: started.elapsed().as_secs_f64(),
        digest: body.map(|b| body_digest(b.as_bytes())),
    })
}

/// `scenario::run_with_ctl`, call for call: outcome-cache lookup, then
/// on a miss trace → workload → simulate → per-job profiles.
fn run_scenario(
    rec: &Recorder,
    id: usize,
    parent: u64,
    scenario: &Scenario,
    ctl: &RunCtl,
) -> Result<ScenarioResult, SimError> {
    ctl.check(SimTime::ZERO)?;
    let cache = global_outcome_cache();
    let key = OutcomeKey::new(scenario);
    if let Some(hit) = cache.lookup(&key) {
        return Ok((*hit).clone());
    }
    let trace = rec.span("grid.synth", id, parent, |_| {
        generate_calibrated_arc(&scenario.region, scenario.days, scenario.seed)
    });
    let horizon = SimDuration::from_days(scenario.days as f64);
    let jobs = rec.span("workload.synth", id, parent, |_| {
        generate_arc(&scenario.workload, horizon, scenario.seed.wrapping_add(1))
    });
    let cfg = SimConfig {
        cluster: scenario.cluster.clone(),
        policy: scenario.policy.clone(),
        queues: scenario.queues.clone(),
        carbon_trace: Some((*trace).clone()),
        power_budget: scenario.scaling.as_ref().map(|p| p.budget_series(&trace)),
        checkpoint: scenario.checkpoint.clone(),
        fair_share: None,
        failures: None,
        enable_malleability: scenario.malleable,
        reshape_cost: SimDuration::from_secs(30.0),
        tick: SimDuration::from_hours(1.0),
        max_steps: 50_000_000,
    };
    let outcome = rec.span("sim.simulate", id, parent, |_| {
        simulate_with_ctl(&jobs, &cfg, ctl)
    })?;
    let counters = &outcome.hot_path;
    rec.events.fetch_add(counters.events, Ordering::Relaxed);
    rec.spec_planned
        .fetch_add(counters.spec_planned, Ordering::Relaxed);
    rec.spec_hits
        .fetch_add(counters.spec_hits, Ordering::Relaxed);
    let (profiles, site) = rec.span("accounting.profile", id, parent, |_| {
        let detector = GreenDetector::default();
        let profiles: Vec<JobCarbonProfile> = outcome
            .records
            .iter()
            .map(|r| profile_job(r, &trace, &detector))
            .collect();
        let site = site_account(&profiles);
        (profiles, site)
    });
    let total_it_energy = outcome.job_energy + outcome.idle_energy;
    let mean_it_power = if outcome.makespan.as_secs() > 0.0 {
        total_it_energy.over_duration(outcome.makespan - SimTime::ZERO)
    } else {
        Power::ZERO
    };
    let pue = if mean_it_power.watts() > 0.0 {
        scenario.pue.pue_at(mean_it_power)
    } else {
        1.0
    };
    let result = ScenarioResult {
        name: scenario.name.clone(),
        facility_carbon: outcome.carbon * pue,
        grid_mean_ci: trace.series().stats().mean(),
        outcome,
        profiles,
        site,
    };
    Ok((*cache.insert(key, Arc::new(result))).clone())
}

/// `api::sweep_body`'s validation of a `nodes` sweep: one scenario per
/// axis value.
fn sweep_scenarios(body: &str) -> Result<(SweepRequest, Vec<Scenario>, RunCtl), SimError> {
    let sweep = parse_sweep(body);
    assert_eq!(sweep.axis, "nodes", "the benchmark sweeps nodes only");
    assert!(!sweep.derive_seeds, "the benchmark does not derive seeds");
    let mut scenarios = Vec::with_capacity(sweep.values.len());
    for &value in &sweep.values {
        let mut point = sweep.base.clone();
        point.nodes = value as u32;
        let scenario = point.to_scenario()?;
        scenario.validate()?;
        scenarios.push(scenario);
    }
    let ctl = api::request_ctl(sweep.timeout_ms, None);
    Ok((sweep, scenarios, ctl))
}

fn sweep_row(seed: u64, r: ScenarioResult) -> SweepRow {
    SweepRow {
        name: r.name,
        seed,
        jobs: r.outcome.records.len(),
        unfinished: r.outcome.unfinished,
        makespan_hours: r.outcome.makespan.as_secs() / 3600.0,
        mean_wait_hours: r.outcome.wait.mean / 3600.0,
        utilization: r.outcome.utilization,
        energy_kwh: (r.outcome.job_energy + r.outcome.idle_energy).kwh(),
        carbon_kg: r.outcome.carbon.grams() / 1000.0,
        facility_carbon_kg: r.facility_carbon.grams() / 1000.0,
        grid_mean_ci: r.grid_mean_ci,
    }
}

fn sweep_response(sweep: &SweepRequest, results: Vec<Result<SweepRow, SimError>>) -> SweepResponse {
    let points = results
        .into_iter()
        .enumerate()
        .map(|(index, result)| {
            let (row, error) = match result {
                Ok(row) => (Some(row), None),
                Err(e) => (None, Some(e)),
            };
            SweepPointOutcome {
                index,
                value: sweep.values[index],
                row,
                error,
            }
        })
        .collect();
    SweepResponse {
        axis: sweep.axis.clone(),
        master_seed: sweep.master_seed,
        derive_seeds: sweep.derive_seeds,
        points,
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover (children of a sweep run in parallel and overlap).
pub fn self_time(span: &Span, children: &[&Span]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    span.dur() - covered
}
