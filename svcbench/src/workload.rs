//! The four workloads and their seeded request lists.
//!
//! Everything a run sends is generated here from `--seed`: the program
//! sees only the resulting HTTP requests. Each workload fixes its share
//! of request kinds (cold, cache hit, conditional) by construction, so
//! the cache behaviour of a run is a property of its list, not of
//! timing.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use sustain_service::api::{self, RunRequest};

use crate::digest::Fnv;

/// Sweep axis values of `sweep_conservative`: five distinct node
/// counts plus a duplicate that the sweep memo collapses.
pub const SWEEP_NODES: [u32; 6] = [192, 224, 256, 288, 320, 256];

/// Distinct points of one `sweep_conservative` request.
pub const SWEEP_DISTINCT: usize = 5;

/// Warmed 60-day scenarios that `run_saturated` repeats: as outcome-
/// cache hits and as conditional requests.
const SATURATED_HOT: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RunSaturated,
    RunConservative,
    SweepConservative,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RunSaturated,
        Workload::RunConservative,
        Workload::SweepConservative,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunSaturated => "run_saturated",
            Workload::RunConservative => "run_conservative",
            Workload::SweepConservative => "sweep_conservative",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Clients of the closed loop: each sends its next request when its
    /// previous one completed. Two clients keep both server workers busy,
    /// so every request runs with the same share of the thread budget.
    pub fn clients(self) -> usize {
        match self {
            Workload::RunSaturated => 1,
            _ => 2,
        }
    }

    /// Requests per second the timed phase is sized for on a 2-core
    /// host. A run sends a fixed number of requests, `seconds × rate`, so
    /// that its deterministic counters repeat exactly for a given seed
    /// and its timed phase lasts about `--seconds`.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::RunSaturated => 2.5,
            Workload::RunConservative => 12.0,
            Workload::SweepConservative => 3.0,
        }
    }

    /// Timed requests per run. At least 20, so that 10 samples lie
    /// beyond a tail percentile of at least p50.
    pub fn timed_count(self, seconds: u64) -> usize {
        ((seconds as f64 * self.nominal_rate()).round() as usize).max(20)
    }
}

/// What a request is expected to do to the server's caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `POST /run` of a scenario never seen before: every cache misses.
    Cold,
    /// `POST /run` of a warmed scenario: an outcome-cache hit.
    Hot,
    /// `POST /run` of a warmed scenario carrying its `ETag` in
    /// `If-None-Match`: answered 304 without running.
    Conditional,
    /// `POST /sweep` with a fresh base seed.
    Sweep,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Kind::Cold => "cold",
            Kind::Hot => "hot",
            Kind::Conditional => "conditional",
            Kind::Sweep => "sweep",
        };
        f.write_str(name)
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Position in its list, warm-up or timed.
    pub id: usize,
    pub kind: Kind,
    /// `/run` or `/sweep`.
    pub path: &'static str,
    /// JSON body, exactly as sent.
    pub body: String,
    /// The `ETag` the server must attach (`api::run_etag`), `/run` only.
    pub etag: Option<String>,
}

impl Request {
    /// `If-None-Match` value sent with the request.
    pub fn if_none_match(&self) -> Option<&str> {
        match self.kind {
            Kind::Conditional => self.etag.as_deref(),
            _ => None,
        }
    }

    /// The status a correct server answers with.
    pub fn expected_status(&self) -> u16 {
        match self.kind {
            Kind::Conditional => 304,
            _ => 200,
        }
    }
}

/// The requests of one run.
pub struct Plan {
    pub workload: Workload,
    /// Sent before timing starts, closed loop, after every spawn.
    pub warmup: Vec<Request>,
    /// Sent during the timed phase.
    pub timed: Vec<Request>,
}

impl Plan {
    pub fn count(&self, kind: Kind) -> usize {
        self.timed.iter().filter(|r| r.kind == kind).count()
    }

    /// Request kinds and their counts, warm-up and timed apart: equal
    /// for every seed of a workload.
    pub fn mix(&self) -> BTreeMap<String, usize> {
        let mut mix = BTreeMap::new();
        for (phase, list) in [("warmup", &self.warmup), ("timed", &self.timed)] {
            for r in list {
                *mix.entry(format!("{phase}.{}", r.kind)).or_insert(0) += 1;
            }
        }
        mix
    }

    /// Digest of everything the run will send, in order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in self.warmup.iter().chain(&self.timed) {
            h.write(r.path.as_bytes());
            h.write(r.body.as_bytes());
            h.write(r.if_none_match().unwrap_or("").as_bytes());
        }
        h.finish()
    }
}

/// splitmix64: a small, well-mixed generator, so the inputs depend on
/// nothing but the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: &str) -> Rng {
        let mut h = Fnv::new();
        h.write(stream.as_bytes());
        Rng(seed ^ h.finish())
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A scenario seed never drawn before in this plan.
    fn fresh_seed(&mut self, used: &mut HashSet<u64>) -> u64 {
        loop {
            let s = self.next() >> 32;
            if used.insert(s) {
                return s;
            }
        }
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn run_body(region: &str, policy: &str, nodes: u32, days: usize, seed: u64) -> String {
    format!(
        r#"{{"region":"{region}","policy":"{policy}","nodes":{nodes},"days":{days},"seed":{seed}}}"#
    )
}

/// Parses a `/run` body exactly as the server does.
pub fn parse_run(body: &str) -> RunRequest {
    serde_json::from_str(body).expect("generated /run bodies are valid RunRequests")
}

fn run_request(id: usize, kind: Kind, body: String) -> Request {
    let etag = api::run_etag(&parse_run(&body));
    assert!(etag.is_some(), "generated scenario must be valid: {body}");
    Request {
        id,
        kind,
        path: "/run",
        body,
        etag,
    }
}

fn sweep_request(id: usize, seed: u64) -> Request {
    let values: Vec<String> = SWEEP_NODES.iter().map(|n| n.to_string()).collect();
    let base = run_body("Germany", "conservative", 256, 5, seed);
    Request {
        id,
        kind: Kind::Sweep,
        path: "/sweep",
        body: format!(
            r#"{{"base":{base},"axis":"nodes","values":[{}]}}"#,
            values.join(",")
        ),
        etag: None,
    }
}

/// Generates the warm-up and timed requests of `workload` for `seed`.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let mut rng = Rng::new(seed, workload.name());
    let mut used = HashSet::new();
    let n = workload.timed_count(seconds);
    let (warmup, timed) = match workload {
        Workload::RunSaturated => {
            let mut fresh = || run_body("Germany", "carbon", 256, 60, rng.fresh_seed(&mut used));
            let hot: Vec<String> = (0..SATURATED_HOT).map(|_| fresh()).collect();
            // 80% cold runs, 10% repeats of a warmed scenario, 10% of them
            // conditional; the kinds are shuffled, the counts fixed.
            let mut kinds = vec![Kind::Cold; n];
            for (i, k) in kinds.iter_mut().take(n / 5).enumerate() {
                *k = if i % 2 == 0 {
                    Kind::Hot
                } else {
                    Kind::Conditional
                };
            }
            rng.shuffle(&mut kinds);
            let timed = kinds
                .into_iter()
                .enumerate()
                .map(|(id, kind)| {
                    let body = match kind {
                        Kind::Cold => {
                            run_body("Germany", "carbon", 256, 60, rng.fresh_seed(&mut used))
                        }
                        _ => hot[rng.below(hot.len())].clone(),
                    };
                    run_request(id, kind, body)
                })
                .collect();
            let warmup = hot
                .into_iter()
                .enumerate()
                .map(|(id, b)| run_request(id, Kind::Hot, b))
                .collect();
            (warmup, timed)
        }
        Workload::RunConservative => {
            let mut cold = |id| {
                let body = run_body("Germany", "conservative", 256, 5, rng.fresh_seed(&mut used));
                run_request(id, Kind::Cold, body)
            };
            let warmup: Vec<Request> = (0..6).map(&mut cold).collect();
            (warmup, (0..n).map(cold).collect())
        }
        Workload::SweepConservative => {
            let warmup = (0..6)
                .map(|id| sweep_request(id, rng.fresh_seed(&mut used)))
                .collect();
            let timed = (0..n)
                .map(|id| sweep_request(id, rng.fresh_seed(&mut used)))
                .collect();
            (warmup, timed)
        }
    };
    Plan {
        workload,
        warmup,
        timed,
    }
}

/// `k` distinct request ids out of `n`, chosen by `seed`: the bodies a
/// run recomputes in-process and compares with the server's.
pub fn sample_ids(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, "golden-sample");
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    ids.truncate(k);
    ids.sort_unstable();
    ids
}
