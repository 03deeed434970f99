//! End-to-end benchmark of the sustain-hpc service.
//!
//! ```text
//! svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --server <sustain-hpc binary>
//! ```
//!
//! Starts `sustain-hpc serve` (default settings, ephemeral loopback
//! port) as a child process, sets it up several times, drives one
//! seeded workload over HTTP, checks every response, and prints the
//! end-to-end metrics. With `--trace 1` it then replays the same
//! requests in-process, untraced and traced, and prints the per-layer
//! metrics instead. The last line of stdout is one JSON object; the
//! exit code is 1 when any check failed. See `README.md` beside this
//! package.

mod digest;
mod http;
mod layers;
mod load;
mod replay;
mod server;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::digest::{BodyDigest, Fnv};
use crate::load::Sample;
use crate::replay::Handled;
use crate::server::{clock_ticks_per_s, delta, Counters, Server};
use crate::workload::{Kind, Plan, Request, Workload, SWEEP_DISTINCT};

/// Set-ups per run (spawn → `/healthz` → warm-up); `setup_s` is their
/// median. The last one serves the timed phase.
const SETUPS: usize = 3;

/// Samples that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Directory, relative to the working directory, for the server's log,
/// the span files and the per-seed counts.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Failed correctness checks of one run.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn fail(&mut self, msg: String) {
        eprintln!("CHECK FAILED: {msg}");
        self.0.push(msg);
    }

    fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.fail(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    /// Status, framing (checked while reading) and `ETag` of a response.
    fn response(&mut self, r: &Request, resp: &Result<http::Response, String>) -> bool {
        let msg = match resp {
            Err(e) => e.clone(),
            Ok(x) if x.status != r.expected_status() => {
                format!("status {} (expected {})", x.status, r.expected_status())
            }
            Ok(x) if r.path == "/run" && x.etag != r.etag => {
                format!("ETag {:?} (api::run_etag gives {:?})", x.etag, r.etag)
            }
            Ok(x) if x.status == 304 && x.body_len != 0 => "304 with a body".to_string(),
            Ok(_) => return true,
        };
        self.fail(format!("{} request {} ({}): {msg}", r.path, r.id, r.kind));
        false
    }
}

/// A metric as printed in the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: `(value, percentile)`.
fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    let k = n - TAIL_BEYOND;
    (s[k - 1], 100.0 * k as f64 / n as f64)
}

fn file_digest(h: &mut Fnv, path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    h.write(&bytes);
    Ok(())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let w = args.workload;
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let mut checks = Checks::default();

    // Inputs: generated from the seed alone; a second seed must give
    // the same mix of request kinds.
    let plan = workload::plan(w, args.seed, args.seconds);
    let twin = workload::plan(w, args.seed.wrapping_add(1), args.seconds);
    println!(
        "workload {}: seed {} inputs {:016x}; {} warm-up + {} timed requests; {}",
        w.name(),
        args.seed,
        plan.digest(),
        plan.warmup.len(),
        plan.timed.len(),
        match w.clients() {
            1 => "closed loop, 1 client".to_string(),
            n => format!("closed loop, {n} clients"),
        }
    );
    println!("  mix {:?}", plan.mix());
    println!(
        "  seed {} inputs {:016x}; same mix: {}",
        args.seed.wrapping_add(1),
        twin.digest(),
        plan.mix() == twin.mix()
    );
    checks.expect_eq("request mix of the next seed", twin.mix(), plan.mix());

    let ticks_per_s = clock_ticks_per_s();
    let log = out.join(format!("server-{}.log", std::process::id()));

    // Set-up, several times over; each spawn starts with empty caches.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let (server, to_healthz) = Server::spawn(&args.server, &log)?;
        // Warm-up with the timed phase's concurrency, so that it runs
        // with the same share of the thread budget.
        let warm = Instant::now();
        let (warmed, _) = load::closed(server.addr, &plan.warmup, w.clients());
        setups.push((to_healthz + warm.elapsed()).as_secs_f64());
        for (r, s) in plan.warmup.iter().zip(&warmed) {
            checks.response(r, &s.response);
        }
        if i + 1 < SETUPS {
            server.shutdown()?;
        } else {
            live = Some(server);
        }
    }
    let server = live.expect("SETUPS is at least 1");
    let setup_s = median(&setups);

    // Timed phase.
    let before = server.stats()?;
    let cpu_before = server.cpu_s(ticks_per_s)?;
    let (samples, phase_s) = load::closed(server.addr, &plan.timed, w.clients());
    let cpu_after = server.cpu_s(ticks_per_s)?;
    let after = server.stats()?;
    let peak_rss = server.peak_rss_mib()?;
    server.shutdown()?;
    let _ = std::fs::remove_file(&log);
    let d = delta(&before, &after);

    // Every response: status, framing, ETag.
    let mut ok = Vec::new();
    for (r, s) in plan.timed.iter().zip(&samples) {
        if checks.response(r, &s.response) {
            ok.push(s);
        }
    }
    let attempted = samples.len();
    let failed = attempted - ok.len();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_s).collect();
    let (tail_s, tail_pct) = tail(&latencies);
    let server_cpu = cpu_after - cpu_before;
    let e2e = vec![
        m("latency_p50_s", median(&latencies), "s"),
        m("latency_tail_s", tail_s, "s"),
        m("requests_per_s", ok.len() as f64 / phase_s, "1/s"),
        m(
            "cpu_s_per_request",
            server_cpu / ok.len().max(1) as f64,
            "s",
        ),
        m("peak_rss_mb", peak_rss, "MiB"),
        m("setup_s", setup_s, "s"),
    ];

    let counts = count_checks(&mut checks, &plan, &samples, &d);
    same_seed_check(&mut checks, &args, &plan, &counts, &out)?;

    println!(
        "  requests: sent {attempted}, succeeded {}, failed {failed}; timed phase {phase_s:.3} s; server CPU {server_cpu:.2} s; set-ups {:?} s",
        ok.len(),
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>()
    );
    for metric in &e2e {
        let note = match metric.name {
            "latency_p50_s" => format!("(n={})", latencies.len()),
            "latency_tail_s" => format!(
                "(p{tail_pct:.1}, n={}, {TAIL_BEYOND} beyond)",
                latencies.len()
            ),
            "setup_s" => format!("(median of {SETUPS})"),
            _ => String::new(),
        };
        println!(
            "  {:<18} {:>14.6} {:<4} {note}",
            metric.name, metric.value, metric.unit
        );
    }
    println!("  counts {counts:?}");

    let metrics = if args.trace {
        let layers = layers::trace_run(&mut checks, &args, &plan, &samples, &d, &out)?;
        for metric in &layers {
            println!(
                "  {:<28} {:>16.9} {}",
                metric.name, metric.value, metric.unit
            );
        }
        layers
    } else {
        golden_sample(&mut checks, &args, &plan, &samples)?;
        e2e
    };

    let correct = checks.0.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// Checks the `/stats` deltas of the timed phase against what the
/// request list implies, and returns the counts that must repeat
/// exactly for a seed.
fn count_checks(
    checks: &mut Checks,
    plan: &Plan,
    samples: &[Sample],
    d: &Counters,
) -> BTreeMap<String, u64> {
    let c = |k: &str| d.get(k).copied().unwrap_or(0);
    let cold = plan.count(Kind::Cold) as u64;
    let hot = plan.count(Kind::Hot) as u64;
    let sweeps = plan.count(Kind::Sweep) as u64;
    let scenarios = cold + SWEEP_DISTINCT as u64 * sweeps;
    checks.expect_eq("outcome-cache hits", c("outcome_cache.hits"), hot);
    checks.expect_eq("outcome-cache misses", c("outcome_cache.misses"), scenarios);
    for cache in ["trace_cache", "workload_cache"] {
        let lookups = c(&format!("{cache}.hits")) + c(&format!("{cache}.misses"));
        checks.expect_eq(&format!("{cache} lookups"), lookups, scenarios);
    }

    let mut counts = BTreeMap::new();
    let responses = samples.iter().filter_map(|s| s.response.as_ref().ok());
    let status = |code: u16| responses.clone().filter(|r| r.status == code).count() as u64;
    counts.insert("http.status_200".to_string(), status(200));
    counts.insert("http.status_304".to_string(), status(304));
    counts.insert(
        "http.body_bytes_without_hot_path".to_string(),
        responses.clone().map(|r| r.digest.len as u64).sum(),
    );
    let mut keys = vec![
        "hot_path.events",
        "hot_path.schedule_passes",
        "hot_path.schedule_skips",
        "outcome_cache.hits",
        "outcome_cache.misses",
    ];
    // The points of a sweep run in parallel, and two points that miss a
    // trace or workload cache at once both count a miss, so those two
    // caches' split into hits and misses is timing-dependent there.
    if sweeps == 0 {
        keys.extend([
            "trace_cache.hits",
            "trace_cache.misses",
            "workload_cache.hits",
            "workload_cache.misses",
        ]);
    }
    for k in keys {
        counts.insert(k.to_string(), c(k));
    }
    counts
}

/// Two runs with the same seed, workload, size and binaries must give
/// identical deterministic counts. Each run leaves its counts in the
/// output directory; a later run with the same key compares against it.
fn same_seed_check(
    checks: &mut Checks,
    args: &Args,
    plan: &Plan,
    counts: &BTreeMap<String, u64>,
    out: &Path,
) -> Result<(), String> {
    let mut h = Fnv::new();
    file_digest(&mut h, &args.server)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    file_digest(&mut h, &exe)?;
    let path = out.join(format!(
        "counts-{}-{}-{}-{:016x}.txt",
        plan.workload.name(),
        args.seed,
        plan.timed.len(),
        h.finish()
    ));
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != text => checks.fail(format!(
            "deterministic counts differ from an earlier run with the same seed:\nearlier:\n{previous}now:\n{text}"
        )),
        Ok(_) => println!("  counts equal an earlier run with this seed"),
        Err(_) => std::fs::write(&path, text)
            .map_err(|e| format!("write {}: {e}", path.display()))?,
    }
    Ok(())
}

/// Seeded sample of requests whose bodies are recomputed in-process
/// through `api::run_body` / `api::sweep_body` and compared with the
/// server's, ignoring the `hot_path` block.
fn golden_sample(
    checks: &mut Checks,
    args: &Args,
    plan: &Plan,
    samples: &[Sample],
) -> Result<(), String> {
    let k = match plan.workload {
        Workload::RunConservative => 4,
        _ => 3,
    };
    let ids = workload::sample_ids(args.seed, plan.timed.len(), k);
    for &id in &ids {
        let handled = replay::handle(&plan.timed[id])?;
        compare_body(
            checks,
            &plan.timed[id],
            &samples[id],
            &handled,
            "in-process",
        );
    }
    println!(
        "  bodies of requests {ids:?} equal their in-process recomputation: {}",
        checks.0.is_empty()
    );
    Ok(())
}

fn compare_body(checks: &mut Checks, r: &Request, s: &Sample, handled: &Handled, by: &str) {
    let served: Option<BodyDigest> = match &s.response {
        Ok(x) if x.status == 200 => Some(x.digest),
        _ => None,
    };
    if handled.digest != served {
        checks.fail(format!(
            "{} request {} ({}): body differs from its {by} recomputation",
            r.path, r.id, r.kind
        ));
    }
}
