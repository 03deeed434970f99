//! Shared sweep driver for the experiment suite.
//!
//! Every experiment in this workspace is a *sweep*: a list of points
//! (thresholds, regions, policies, years, …) mapped independently to
//! result rows. This module has two drivers:
//!
//! * [`sweep`] fans the points out over the Rayon thread pool. The
//!   pool's `collect` reassembles results in input order, so a parallel
//!   sweep is **bit-for-bit identical** to a serial run regardless of
//!   thread count (asserted in `tests/sweep_determinism.rs`).
//! * [`try_sweep`] is the one fallible execution path. A [`SweepSpec`]
//!   picks its modes: every point receives a deterministic sub-seed
//!   derived from a master seed ([`point_seed`]), runs inside a fault
//!   boundary (a panic becomes a typed per-point error) under a
//!   cancellation control, and optionally retries transient failures
//!   (DESIGN.md §11), collapses duplicate points (memoization), and
//!   checkpoints to a crash-resumable journal whose quarantine
//!   tombstones keep known-poison points from re-running.
//!
//! [`calibrated_trace`] resolves a `(region profile, days, seed)` key
//! through the process-wide [`TraceCache`], so a sweep whose points
//! share a grid window synthesizes and calibrates that trace exactly
//! once instead of once per point.
//!
//! The worker thread count is controlled by [`set_threads`] (the CLI's
//! `--threads` flag) or the [`THREADS_ENV`] environment variable; `0`
//! or unset means "use all available hardware parallelism".
//!
//! That count is a single **process-wide worker budget**, not a
//! per-call-site pool size: every parallel pipeline (the sweep fan-out
//! here, and the service's request workers) leases spare workers from
//! the same budget and runs inline when none are left. Nested pipelines
//! therefore never run more than the budgeted number of worker threads
//! — nesting degrades to serial execution instead of oversubscribing
//! the host (asserted in the vendored `rayon` shim's
//! `nested_pipelines_share_the_budget_and_stay_ordered` test).

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use sustain_grid::region::RegionProfile;
use sustain_grid::synth::generate_calibrated_arc;
use sustain_grid::trace::CarbonTrace;
use sustain_sim_core::ctl::RunCtl;
use sustain_sim_core::error::{env_knob_usize, ConfigError, SimError};
use sustain_sim_core::hash::CanonicalHash;
use sustain_sim_core::retry::{self, RetryPolicy};
use sustain_sim_core::rng::RngStream;
use sustain_sim_core::time::SimTime;

use rayon::prelude::*;

pub use sustain_grid::synth::{
    global_trace_cache, init_trace_cache_cap_from_env, CacheStats, TraceCache, TraceKey,
};

/// Environment variable that sets the sweep worker-thread count
/// (equivalent to the CLI's `--threads`). `0` = hardware parallelism.
pub const THREADS_ENV: &str = "SUSTAIN_THREADS";

/// Fallible [`set_threads`]: applies the worker-thread count and
/// propagates a pool-reconfiguration failure as a typed
/// [`ConfigError`]. A long-running process (the service front-end)
/// must use this path — a swallowed failure would silently keep a
/// stale thread count for the rest of its lifetime.
pub fn try_set_threads(n: usize) -> Result<(), ConfigError> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| {
            ConfigError::new(
                "sweep",
                "threads",
                format!("failed to apply worker-thread count {n}: {e}"),
            )
        })
}

/// Sets the number of worker threads used by all subsequent sweeps.
/// `0` restores the default (all available hardware parallelism).
/// `1` forces fully serial, in-thread execution.
///
/// The vendored pool has no persistent workers to rebuild, so
/// reconfiguration cannot currently fail; should a future upstream
/// error occur, it is logged loudly to stderr (the previous count stays
/// in effect) instead of being discarded. Callers that need to *react*
/// to the failure use [`try_set_threads`].
pub fn set_threads(n: usize) {
    if let Err(e) = try_set_threads(n) {
        eprintln!("warning: {e}; the previous thread count stays in effect");
    }
}

/// Number of worker threads sweeps will currently use.
pub fn effective_threads() -> usize {
    rayon::current_num_threads()
}

/// Applies [`THREADS_ENV`] if set; returns the applied count. Call once
/// at process start; an explicit `--threads` flag should be applied
/// after this and wins.
///
/// An unparseable value (`two`, `-1`, `1.5`) is a hard, typed error —
/// the operator asked for a specific thread count and must not silently
/// get all cores instead.
pub fn init_threads_from_env() -> Result<Option<usize>, ConfigError> {
    match env_knob_usize(THREADS_ENV)? {
        Some(n) => {
            try_set_threads(n)?;
            Ok(Some(n))
        }
        None => Ok(None),
    }
}

/// Maps every point to a row in parallel, preserving input order.
///
/// The output is exactly `points.iter().map(f).collect()` — same rows,
/// same order, bit-for-bit — for every thread count, because the pool
/// reassembles chunk results by index before returning.
pub fn sweep<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    points.par_iter().map(f).collect()
}

/// The deterministic sub-seed [`try_sweep`] hands to point `index`
/// under `master_seed`. Exposed so tests and callers that unroll a
/// sweep manually can reproduce the exact per-point seeds.
pub fn point_seed(master_seed: u64, index: u64) -> u64 {
    let mut stream = RngStream::new(master_seed).derive_idx(index);
    rand::RngCore::next_u64(&mut stream)
}

/// Structured failure of one sweep point whose closure panicked; the
/// fault boundary of [`try_sweep`] reports it as a [`SimError`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointError {
    /// Index of the failed point in the input slice.
    pub index: usize,
    /// Rendered panic payload (the `panic!`/`assert!` message, or a
    /// placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep point {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PointError {}

impl From<PointError> for SimError {
    fn from(e: PointError) -> SimError {
        SimError::Faulted {
            unit: format!("sweep point {}", e.index),
            message: e.message,
        }
    }
}

/// Renders a caught panic payload: `&str` and `String` payloads (the
/// output of `panic!`/`assert!` with a message) are preserved verbatim.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one point body under the sweep's fault boundary: the
/// `sweep::point` fault site, then `catch_unwind` so a panic (organic
/// or injected) becomes a typed [`SimError::Faulted`] for this point
/// while every other point completes.
fn run_point<R>(index: usize, body: impl FnOnce() -> Result<R, SimError>) -> Result<R, SimError> {
    match catch_unwind(AssertUnwindSafe(|| {
        sustain_sim_core::faultpoint!(infallible "sweep::point");
        body()
    })) {
        Ok(result) => result,
        Err(payload) => Err(SimError::from(PointError {
            index,
            message: panic_message(payload),
        })),
    }
}

/// Runs a journal operation inside its own fault boundary: an injected
/// (or organic) panic while reading or appending the journal surfaces
/// as a typed error, never as an unwind out of the sweep.
fn journal_guarded<T>(
    action: &str,
    body: impl FnOnce() -> Result<T, SimError>,
) -> Result<T, SimError> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(journal_io_error(
            &format!("{action} panicked"),
            panic_message(payload),
        ))
    })
}

/// Builds the outer [`SimError::Cancelled`] for a cancelled sweep,
/// appending partial-progress stats to the reason. `at_sim_time` is
/// zero: the sweep clock, not any single point's simulation clock.
fn sweep_cancelled(reason: String, completed: usize, total: usize) -> SimError {
    SimError::Cancelled {
        at_sim_time: SimTime::ZERO,
        reason: format!("{reason}; {completed}/{total} sweep points completed"),
    }
}

/// One point's outcome from [`try_sweep`]: the final result plus how
/// many attempts it took to get there.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRun<R> {
    /// The point's final result after retries (the last error when the
    /// attempt budget was exhausted).
    pub result: Result<R, SimError>,
    /// Executed attempts: `1` = first-try success, `> 1` = healed or
    /// exhausted after retries, `0` = never ran (pre-cancelled, or
    /// replayed/skipped from a journal).
    pub attempts: usize,
}

/// How [`try_sweep`] runs its points. [`SweepSpec::new`] is the plain
/// mode — derived seeds, fault isolation, cancellation, one attempt per
/// point — and each remaining field switches on one more mechanism.
pub struct SweepSpec<'a, R> {
    /// Master seed: point `i` receives [`point_seed`]`(seed, i)`.
    pub seed: u64,
    /// Cancellation control, checked before every attempt (points in
    /// flight also observe it inside the simulation loop). On
    /// cancellation the whole sweep returns [`SimError::Cancelled`]
    /// whose reason carries how many points completed.
    pub ctl: &'a RunCtl,
    /// Re-executes [`sustain_sim_core::error::Transience::Transient`]
    /// failures (injected faults, caught panics) under this policy,
    /// with backoff jittered from the point's own seed, so the retry
    /// schedule replays bit-for-bit like the results do. Point
    /// functions are pure in `(point, seed)`, so a healed point is
    /// byte-identical to a first-try success. With a journal, a point
    /// that still fails is quarantined as a tombstone. `None` = one
    /// attempt, no tombstones.
    pub retry: Option<RetryPolicy>,
    /// Content-addressed dedupe: points with equal [`CanonicalHash`]
    /// fingerprints run once (the first occurrence), and every
    /// duplicate receives a clone of that run, failures included. Only
    /// sound when the point value is the whole input — the closure
    /// must ignore its seed argument, as `service::sweep_scenarios`
    /// does by baking each seed into the scenario.
    pub memo: bool,
    /// Crash-resumable checkpoint journal (see [`Journal`]).
    pub journal: Option<Journal<'a, R>>,
}

impl<'a, R> SweepSpec<'a, R> {
    /// The plain mode: no retry, no memo, no journal.
    pub fn new(seed: u64, ctl: &'a RunCtl) -> SweepSpec<'a, R> {
        SweepSpec {
            seed,
            ctl,
            retry: None,
            memo: false,
            journal: None,
        }
    }
}

/// The checkpoint journal of a [`try_sweep`]: an fsync'd JSON-lines
/// file with one record per finished point (index, derived seed, body
/// hash, and the row or a quarantine tombstone).
///
/// Points already in the journal are **replayed instead of re-run**, so
/// a sweep killed mid-run and restarted with the same journal produces
/// byte-identical results to an uninterrupted run (asserted by the
/// kill-and-resume test in `tests/sweep_resume.rs`). Replayed rows
/// come back with `attempts == 0`; replayed tombstones surface their
/// recorded error and attempt count without re-running, unless
/// `retry_failed` (the CLI's `sweep --retry-failed`) re-runs them —
/// their fresh outcome is appended after the tombstone and supersedes
/// it on the next replay. Cancelled points are never journaled.
///
/// Every line is validated against this sweep's derived seeds and
/// body hashes: a journal from a different sweep, or a corrupted
/// line, is a typed [`ConfigError`] rather than silent wrong results.
/// The one exception is a torn final line (no trailing newline: a
/// crash mid-append), which is truncated away and its point re-run.
pub struct Journal<'a, R> {
    path: &'a Path,
    retry_failed: bool,
    encode: fn(&R) -> Value,
    decode: fn(&Value) -> Result<R, DeError>,
}

impl<'a, R: Serialize + Deserialize> Journal<'a, R> {
    /// A journal at `path`; `retry_failed` re-runs tombstoned points.
    pub fn new(path: &'a Path, retry_failed: bool) -> Journal<'a, R> {
        Journal {
            path,
            retry_failed,
            encode: R::to_value,
            decode: R::from_value,
        }
    }
}

impl<R> Journal<'_, R> {
    /// Replays the journal into `slots` (rows, and tombstones unless
    /// `retry_failed`), drops a torn tail, and opens the file for
    /// appending.
    fn open(
        &self,
        seeds: &[u64],
        slots: &mut [Option<PointRun<R>>],
    ) -> Result<Mutex<File>, SimError> {
        let (replayed, valid_bytes) = journal_guarded("journal replay", || {
            replay_journal(self.path, seeds, self.decode)
        })?;
        // A torn final line is re-run, so drop it from the file before
        // appending: otherwise a *second* crash-and-resume would find
        // the torn line mid-file and reject the journal as corrupted.
        match std::fs::metadata(self.path) {
            Ok(meta) if meta.len() > valid_bytes => {
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(self.path)
                    .map_err(|e| journal_io_error("opening journal to drop a torn tail", e))?;
                file.set_len(valid_bytes)
                    .map_err(|e| journal_io_error("truncating a torn journal tail", e))?;
                file.sync_data()
                    .map_err(|e| journal_io_error("fsyncing a truncated journal", e))?;
            }
            _ => {}
        }
        for (slot, replayed) in slots.iter_mut().zip(replayed) {
            *slot = match replayed {
                Some(ReplayedSlot::Row(row)) => Some(PointRun {
                    result: Ok(row),
                    attempts: 0,
                }),
                Some(ReplayedSlot::Tombstone { error, attempts }) if !self.retry_failed => {
                    retry::note_tombstone_skip();
                    Some(PointRun {
                        result: Err(error),
                        attempts,
                    })
                }
                _ => None,
            };
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path)
            .map_err(|e| journal_io_error("opening journal", e))?;
        Ok(Mutex::new(file))
    }
}

/// The fallible sweep driver: maps every point through `f(point,
/// derived seed)` in parallel, in input order, under the modes `spec`
/// selects (see [`SweepSpec`]). Seed derivation, journal replay, memo
/// dedupe, the fault boundary, retry, tombstoning and cancellation
/// accounting each happen here and nowhere else.
///
/// `f` is fallible so each point can put its own typed [`SimError`]
/// (a per-point cancellation, a validation failure) into its slot;
/// panics are caught and become [`SimError::Faulted`]. The outer
/// `Err` is reserved for a cancelled sweep and for journal I/O
/// failures. With no failures every mode returns the same rows as
/// [`sweep`].
pub fn try_sweep<P, R, F>(
    spec: &SweepSpec<'_, R>,
    points: &[P],
    f: F,
) -> Result<Vec<PointRun<R>>, SimError>
where
    P: Sync + CanonicalHash,
    R: Send + Clone,
    F: Fn(&P, u64) -> Result<R, SimError> + Sync,
{
    let seeds: Vec<u64> = (0..points.len() as u64)
        .map(|i| point_seed(spec.seed, i))
        .collect();
    let mut slots: Vec<Option<PointRun<R>>> = (0..points.len()).map(|_| None).collect();
    let journal = match &spec.journal {
        Some(journal) => Some((journal, journal.open(&seeds, &mut slots)?)),
        None => None,
    };

    // Points still to run; under memo only the first of each
    // fingerprint, its duplicates remembered as (duplicate, first).
    let mut fresh_points: Vec<usize> = Vec::new();
    let mut duplicates: Vec<(usize, usize)> = Vec::new();
    let mut first_of: HashMap<u64, usize> = HashMap::new();
    for index in (0..points.len()).filter(|&i| slots[i].is_none()) {
        if spec.memo {
            let first = *first_of
                .entry(points[index].canonical_hash())
                .or_insert(index);
            if first != index {
                duplicates.push((index, first));
                continue;
            }
        }
        fresh_points.push(index);
    }

    let policy = spec.retry.clone().unwrap_or_else(RetryPolicy::none);
    let journal_failure: Mutex<Option<SimError>> = Mutex::new(None);
    let fresh: Vec<(usize, PointRun<R>)> = fresh_points
        .par_iter()
        .map(|&index| {
            let seed = seeds[index];
            let (result, attempts) = retry::run_with_retry(&policy, seed, spec.ctl, || {
                run_point(index, || f(&points[index], seed))
            });
            if let Some((journal, file)) = &journal {
                let record = match &result {
                    Ok(row) => Some(("payload", (journal.encode)(row), None)),
                    // A shutdown mid-sweep must not quarantine healthy
                    // work, and without retry a failure is not final.
                    Err(SimError::Cancelled { .. }) => None,
                    Err(_) if spec.retry.is_none() => None,
                    Err(terminal) => {
                        retry::note_quarantine();
                        Some(("tombstone", terminal.to_value(), Some(attempts)))
                    }
                };
                if let Some((key, body, recorded_attempts)) = record {
                    let appended = journal_guarded("journal append", || {
                        append_journal_record(file, index, seed, key, body, recorded_attempts)
                    });
                    if let Err(e) = appended {
                        journal_failure
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .get_or_insert(e);
                    }
                }
            }
            (index, PointRun { result, attempts })
        })
        .collect();

    if let Some(e) = journal_failure
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
    {
        return Err(e);
    }
    for (index, run) in fresh {
        slots[index] = Some(run);
    }
    for (duplicate, first) in duplicates {
        slots[duplicate] = slots[first].clone();
    }
    let runs: Vec<PointRun<R>> = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                unreachable!("every sweep point is replayed, skipped, copied, or freshly run")
            })
        })
        .collect();
    match spec.ctl.cancelled_reason() {
        Some(reason) => {
            let completed = runs.iter().filter(|run| run.result.is_ok()).count();
            Err(sweep_cancelled(reason, completed, points.len()))
        }
        None => Ok(runs),
    }
}

/// The memo mode of [`try_sweep`] with a zero master seed and bare
/// per-point results. Kept with this exact signature because the
/// service benchmark (`svcbench/`) calls it; new code should call
/// [`try_sweep`] directly.
pub fn try_sweep_memo_with_ctl<P, R, F>(
    points: &[P],
    ctl: &RunCtl,
    f: F,
) -> Result<Vec<Result<R, SimError>>, SimError>
where
    P: Sync + CanonicalHash,
    R: Send + Clone,
    F: Fn(&P) -> Result<R, SimError> + Sync,
{
    let spec = SweepSpec {
        memo: true,
        ..SweepSpec::new(0, ctl)
    };
    try_sweep(&spec, points, |point, _| f(point))
        .map(|runs| runs.into_iter().map(|run| run.result).collect())
}

// ---------------------------------------------------------------------------
// Crash-resumable sweeps: the checkpoint journal
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit, used to fingerprint journaled point payloads. Stable
/// across platforms and already the idiom used by the trace cache key.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn journal_io_error(action: &str, err: impl std::fmt::Display) -> SimError {
    SimError::Faulted {
        unit: "sweep journal".to_string(),
        message: format!("{action}: {err}"),
    }
}

/// Appends one journal record — a completed point (`body_key =
/// "payload"`) or a quarantine tombstone (`body_key = "tombstone"`,
/// with the attempt count it burned) — and fsyncs it: the line is only
/// trusted on replay if its hash (over the body JSON) matches, so a
/// torn final line from a crash mid-write is detected and re-run,
/// never half-replayed.
fn append_journal_record(
    file: &Mutex<File>,
    index: usize,
    seed: u64,
    body_key: &str,
    body: Value,
    attempts: Option<usize>,
) -> Result<(), SimError> {
    // Fault sites fire before taking the lock: a panic-mode fault must
    // not poison the file mutex other points still append through.
    sustain_sim_core::faultpoint!("sweep::journal_write").map_err(SimError::from)?;
    let body_json = serde_json::to_string(&body)
        .map_err(|e| journal_io_error("serializing journal payload", e))?;
    let mut fields = vec![
        ("index".to_string(), Value::U64(index as u64)),
        ("seed".to_string(), Value::U64(seed)),
        (
            "hash".to_string(),
            Value::Str(format!("{:016x}", fnv1a_64(body_json.as_bytes()))),
        ),
        (body_key.to_string(), body),
    ];
    if let Some(n) = attempts {
        fields.push(("attempts".to_string(), Value::U64(n as u64)));
    }
    let line = serde_json::to_string(&Value::Object(fields))
        .map_err(|e| journal_io_error("serializing journal entry", e))?;
    sustain_sim_core::faultpoint!("sweep::journal_sync").map_err(SimError::from)?;
    let mut guard = file.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    guard
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| journal_io_error("appending journal line", e))?;
    guard
        .sync_data()
        .map_err(|e| journal_io_error("fsyncing journal", e))
}

/// What a validated journal line resolves to on replay.
#[derive(Debug)]
enum ReplayedSlot<R> {
    /// A completed point: the row replays verbatim.
    Row(R),
    /// A quarantined point: the recorded terminal error and the
    /// attempts it burned before being tombstoned.
    Tombstone { error: SimError, attempts: usize },
}

/// One validated line of the journal: either a completed-point record
/// (`"payload"`) or a quarantine tombstone (`"tombstone"`). Both are
/// validated identically — index range, derived-seed match, body hash —
/// so a tombstone from a foreign journal is rejected exactly like a
/// corrupt row.
fn parse_journal_line<R>(
    line: &str,
    seeds: &[u64],
    decode: fn(&Value) -> Result<R, DeError>,
) -> Result<(usize, ReplayedSlot<R>), String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("unparseable JSON: {e}"))?;
    let index = value["index"]
        .as_u64()
        .ok_or("missing or non-integer \"index\"")? as usize;
    if index >= seeds.len() {
        return Err(format!(
            "point index {index} out of range for a {}-point sweep",
            seeds.len()
        ));
    }
    let seed = value["seed"]
        .as_u64()
        .ok_or("missing or non-integer \"seed\"")?;
    if seed != seeds[index] {
        return Err(format!(
            "seed {seed} at point {index} does not match this sweep's derived seed \
             {} — the journal belongs to a different sweep",
            seeds[index]
        ));
    }
    let hash = value["hash"].as_str().ok_or("missing \"hash\"")?;
    let (body, is_tombstone) = match value.get("tombstone") {
        Some(tombstone) => (tombstone, true),
        None => (&value["payload"], false),
    };
    let body_json =
        serde_json::to_string(body).map_err(|e| format!("payload re-serialization: {e}"))?;
    let expected = format!("{:016x}", fnv1a_64(body_json.as_bytes()));
    if hash != expected {
        return Err(format!(
            "hash mismatch at point {index}: journal says {hash}, payload hashes to {expected}"
        ));
    }
    if is_tombstone {
        let error =
            SimError::from_value(body).map_err(|e| format!("tombstone at point {index}: {e:?}"))?;
        let attempts = value["attempts"]
            .as_u64()
            .ok_or("tombstone missing \"attempts\"")? as usize;
        return Ok((index, ReplayedSlot::Tombstone { error, attempts }));
    }
    let row = decode(body).map_err(|e| format!("payload at point {index}: {e:?}"))?;
    Ok((index, ReplayedSlot::Row(row)))
}

/// Per-point replayed slots plus the byte length of the journal's
/// valid prefix (see [`replay_journal`]).
type ReplayedJournal<R> = (Vec<Option<ReplayedSlot<R>>>, u64);

/// Replays a checkpoint journal: `replayed[i] = Some(slot)` for every
/// point with a valid journal line, plus the byte length of the valid
/// prefix (everything up to and including the last valid line). A
/// missing file is an empty journal. A final line without its trailing
/// newline is torn (a crash mid-append) and is simply re-run; any other
/// malformed or mismatched line — a complete final line included — is
/// a typed [`ConfigError`]: it means the journal belongs to a different
/// sweep or was corrupted, and silently re-running would mask that (and
/// overwrite the foreign journal).
fn replay_journal<R>(
    path: &Path,
    seeds: &[u64],
    decode: fn(&Value) -> Result<R, DeError>,
) -> Result<ReplayedJournal<R>, SimError> {
    sustain_sim_core::faultpoint!("sweep::journal_replay").map_err(SimError::from)?;
    let mut replayed: Vec<Option<ReplayedSlot<R>>> = (0..seeds.len()).map(|_| None).collect();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((replayed, 0)),
        Err(e) => return Err(journal_io_error("reading journal", e)),
    };
    // Each non-blank line with the byte offset just past it (so the
    // caller can truncate a torn tail before appending) and whether
    // its newline made it to disk.
    let mut lines: Vec<(u64, &str, bool)> = Vec::new();
    let mut offset = 0u64;
    for raw in text.split_inclusive('\n') {
        offset += raw.len() as u64;
        let line = raw.trim();
        if !line.is_empty() {
            lines.push((offset, line, raw.ends_with('\n')));
        }
    }
    let mut valid_bytes = 0u64;
    for (pos, &(end, line, terminated)) in lines.iter().enumerate() {
        match parse_journal_line(line, seeds, decode) {
            // Later lines supersede earlier ones: a point re-run under
            // `--retry-failed` appends its fresh outcome after its
            // tombstone, and the fresh outcome wins on the next replay.
            Ok((index, slot)) => {
                replayed[index] = Some(slot);
                valid_bytes = end;
            }
            // A torn final line is the expected crash artifact; the
            // point simply re-runs (and the tail is truncated away).
            Err(_) if pos + 1 == lines.len() && !terminated => {}
            Err(message) => {
                return Err(SimError::Config(ConfigError::new(
                    "SweepJournal",
                    format!("line {}", pos + 1),
                    message,
                )))
            }
        }
    }
    Ok((replayed, valid_bytes))
}

/// Calibrated carbon trace for `(profile, days, seed)`, served from the
/// process-wide [`TraceCache`]: the first caller generates and
/// calibrates, every later caller (any thread) gets the same `Arc`.
///
/// # Panics
/// Calibration rescales the spread of *daily means*, so `days` must be
/// at least 2 (a single day has no daily-mean variance to scale).
pub fn calibrated_trace(profile: &RegionProfile, days: usize, seed: u64) -> Arc<CarbonTrace> {
    generate_calibrated_arc(profile, days, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use sustain_grid::region::Region;

    /// Unwraps every point of a sweep that must succeed.
    fn rows<R: std::fmt::Debug>(runs: Result<Vec<PointRun<R>>, SimError>) -> Vec<R> {
        runs.expect("no outer failure")
            .into_iter()
            .map(|run| run.result.expect("point succeeds"))
            .collect()
    }

    /// The bare per-point results of a sweep without an outer failure.
    fn results<R>(runs: Result<Vec<PointRun<R>>, SimError>) -> Vec<Result<R, SimError>> {
        runs.expect("no outer failure")
            .into_iter()
            .map(|run| run.result)
            .collect()
    }

    fn journaled<'a, R: Serialize + Deserialize>(
        seed: u64,
        ctl: &'a RunCtl,
        path: &'a Path,
        retry: Option<RetryPolicy>,
        retry_failed: bool,
    ) -> SweepSpec<'a, R> {
        SweepSpec {
            retry,
            journal: Some(Journal::new(path, retry_failed)),
            ..SweepSpec::new(seed, ctl)
        }
    }

    fn retrying<R>(seed: u64, ctl: &RunCtl, policy: RetryPolicy) -> SweepSpec<'_, R> {
        SweepSpec {
            retry: Some(policy),
            ..SweepSpec::new(seed, ctl)
        }
    }

    #[test]
    fn sweep_matches_serial_map() {
        let points: Vec<u64> = (0..257).collect();
        let f = |&x: &u64| (x * x).wrapping_mul(0x9E37_79B9) as f64 / 7.0;
        let serial: Vec<f64> = points.iter().map(f).collect();
        let parallel = sweep(&points, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_seeded_is_deterministic_and_seeds_differ() {
        let points = ["a", "b", "c", "d"];
        let ctl = RunCtl::unlimited();
        let seeded = |master| {
            rows(try_sweep(
                &SweepSpec::new(master, &ctl),
                &points,
                |p, seed| Ok((p.to_string(), seed)),
            ))
        };
        let first = seeded(42);
        let second = seeded(42);
        assert_eq!(first, second);
        for (i, (label, seed)) in first.iter().enumerate() {
            assert_eq!(label, points[i]);
            assert_eq!(*seed, point_seed(42, i as u64));
        }
        let mut seeds: Vec<u64> = first.iter().map(|(_, s)| *s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), points.len(), "per-point seeds must differ");
        let other: Vec<u64> = seeded(43).into_iter().map(|(_, seed)| seed).collect();
        assert_ne!(other, first.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    }

    #[test]
    fn memo_sweep_collapses_duplicates_and_preserves_order() {
        let points: Vec<u64> = vec![3, 7, 3, 9, 7, 3];
        let ctl = RunCtl::unlimited();
        let computed = AtomicUsize::new(0);
        let results = try_sweep_memo_with_ctl(&points, &ctl, |&x| {
            computed.fetch_add(1, Ordering::Relaxed);
            Ok(x * 100)
        })
        .unwrap();
        assert_eq!(computed.load(Ordering::Relaxed), 3, "3 distinct points");
        let rows: Vec<u64> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(rows, vec![300, 700, 300, 900, 700, 300]);
    }

    #[test]
    fn memo_sweep_matches_non_memo_on_distinct_points() {
        let points: Vec<u64> = (0..33).collect();
        let ctl = RunCtl::unlimited();
        let memo = try_sweep_memo_with_ctl(&points, &ctl, |&x| Ok::<_, SimError>(x * 3)).unwrap();
        let plain = rows(try_sweep(&SweepSpec::new(1, &ctl), &points, |&x, _seed| {
            Ok::<_, SimError>(x * 3)
        }));
        let memo: Vec<u64> = memo.into_iter().map(Result::unwrap).collect();
        assert_eq!(memo, plain);
    }

    #[test]
    fn memo_sweep_duplicates_share_a_failed_representative() {
        let points: Vec<u64> = vec![5, 6, 5];
        let ctl = RunCtl::unlimited();
        let results = try_sweep_memo_with_ctl(&points, &ctl, |&x| {
            if x == 5 {
                Err(SimError::InvalidInput {
                    message: "five is out".into(),
                })
            } else {
                Ok(x)
            }
        })
        .unwrap();
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        assert_eq!(results[0], results[2], "duplicate shares the error");
    }

    #[test]
    fn try_sweep_isolates_panicking_points() {
        let points: Vec<u64> = (0..9).collect();
        let ctl = RunCtl::unlimited();
        let results = results(try_sweep(&SweepSpec::new(0, &ctl), &points, |&x, _| {
            assert!(x != 4, "injected failure at four");
            Ok(x * 10)
        }));
        assert_eq!(results.len(), points.len());
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                match r.as_ref().unwrap_err() {
                    SimError::Faulted { unit, message } => {
                        assert_eq!(unit, "sweep point 4");
                        assert!(message.contains("injected failure"), "{message}");
                    }
                    other => panic!("expected Faulted, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as u64 * 10));
            }
        }
    }

    /// Every mode of [`try_sweep`] that a production caller uses
    /// returns, on a fault-free run, rows byte-identical to [`sweep`]:
    /// plain (the experiments' fallible path), memo (`POST /sweep` and
    /// the CLI `sweep`), retry, and retry + journal (`sweep --journal`)
    /// both on a fresh file and replayed from it.
    #[test]
    fn try_sweep_matches_sweep_when_nothing_panics() {
        let points: Vec<u64> = (0..64).map(|x| x % 48).collect();
        let f = |&x: &u64| (x * x).wrapping_mul(0x9E37_79B9) as f64 / 7.0;
        let bytes = |rows: &[f64]| serde_json::to_string(rows).unwrap();
        let plain = bytes(&sweep(&points, f));
        let ctl = RunCtl::unlimited();
        let policy = RetryPolicy::new(3, std::time::Duration::ZERO);
        let path = temp_journal("modes");
        std::fs::remove_file(&path).ok();
        let memo = SweepSpec {
            memo: true,
            ..SweepSpec::new(7, &ctl)
        };
        let modes = [
            ("plain", SweepSpec::new(7, &ctl)),
            ("memo", memo),
            ("retry", retrying(7, &ctl, policy.clone())),
            (
                "retry+journal fresh",
                journaled(7, &ctl, &path, Some(policy.clone()), false),
            ),
            (
                "retry+journal replayed",
                journaled(7, &ctl, &path, Some(policy), false),
            ),
        ];
        for (mode, spec) in &modes {
            let tried = rows(try_sweep(spec, &points, |p, _| Ok(f(p))));
            assert_eq!(bytes(&tried), plain, "{mode}");
        }
        let replayed = try_sweep(&modes[4].1, &points, |_, _| -> Result<f64, SimError> {
            panic!("a complete journal re-runs nothing")
        })
        .expect("replay run");
        assert!(replayed.iter().all(|run| run.attempts == 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn try_sweep_seeded_uses_same_seeds_and_isolates() {
        let points = ["a", "b", "c"];
        let ctl = RunCtl::unlimited();
        let run = || {
            results(try_sweep(&SweepSpec::new(42, &ctl), &points, |p, seed| {
                assert!(*p != "b", "poisoned point");
                Ok(seed)
            }))
        };
        let results = run();
        assert_eq!(results[0], Ok(point_seed(42, 0)));
        assert!(results[1].is_err());
        assert_eq!(results[2], Ok(point_seed(42, 2)));
        let again = run();
        assert_eq!(results, again, "fault isolation must stay deterministic");
    }

    #[test]
    fn point_error_converts_to_sim_error() {
        let e = PointError {
            index: 7,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "sweep point 7 panicked: boom");
        let s: SimError = e.into();
        assert!(s.to_string().contains("sweep point 7"));
    }

    #[test]
    fn calibrated_trace_is_cached() {
        let profile = RegionProfile::january_2023(Region::Sweden);
        let a = calibrated_trace(&profile, 3, 99);
        let b = calibrated_trace(&profile, 3, 99);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn thread_knob_roundtrips() {
        // Note: global state; other tests' *results* are unaffected by
        // the thread count (order-preserving pool), only their speed.
        set_threads(3);
        assert_eq!(effective_threads(), 3);
        try_set_threads(2).unwrap();
        assert_eq!(effective_threads(), 2);
        set_threads(0);
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn with_ctl_matches_try_sweep_seeded_when_unlimited() {
        let points: Vec<u64> = (0..16).collect();
        let ctl = RunCtl::unlimited();
        let via_ctl = rows(try_sweep(&SweepSpec::new(7, &ctl), &points, |&p, seed| {
            Ok(p ^ seed)
        }));
        let plain: Vec<u64> = sweep(&(0..16u64).collect::<Vec<_>>(), |&i| {
            points[i as usize] ^ point_seed(7, i)
        });
        assert_eq!(via_ctl.len(), plain.len());
        for (a, b) in via_ctl.iter().zip(plain.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn with_ctl_reports_partial_progress_on_cancellation() {
        use sustain_sim_core::ctl::CancelToken;
        let points: Vec<u64> = (0..8).collect();
        let token = CancelToken::new();
        token.cancel("shutdown requested");
        let ctl = RunCtl::unlimited().with_token(token);
        let err = try_sweep(&SweepSpec::new(7, &ctl), &points, |&p, _| Ok(p)).unwrap_err();
        match &err {
            SimError::Cancelled { reason, .. } => {
                assert!(reason.contains("shutdown requested"), "{reason}");
                assert!(reason.contains("/8 sweep points completed"), "{reason}");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn with_ctl_isolates_panics_and_typed_errors_per_point() {
        let points: Vec<u64> = (0..5).collect();
        let ctl = RunCtl::unlimited();
        let results = results(try_sweep(&SweepSpec::new(7, &ctl), &points, |&p, _| {
            assert!(p != 1, "injected panic");
            if p == 3 {
                return Err(SimError::invalid_input("point three rejected"));
            }
            Ok(p)
        }));
        assert_eq!(results[0], Ok(0));
        assert!(matches!(&results[1], Err(SimError::Faulted { .. })));
        assert_eq!(results[2], Ok(2));
        assert!(matches!(&results[3], Err(SimError::InvalidInput { .. })));
        assert_eq!(results[4], Ok(4));
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "sustain-sweep-journal-{}-{tag}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn resumable_sweep_journals_and_replays_byte_identically() {
        let path = temp_journal("roundtrip");
        std::fs::remove_file(&path).ok();
        let points: Vec<u64> = (0..6).collect();
        let ctl = RunCtl::unlimited();
        let spec = journaled(11, &ctl, &path, None, false);
        let f = |&p: &u64, seed: u64| Ok((p as f64 + 0.125) * (seed % 97) as f64 / 7.0);
        let first = rows(try_sweep(&spec, &points, f));
        let journal = std::fs::read_to_string(&path).expect("journal exists");
        assert_eq!(journal.lines().count(), points.len());
        for line in journal.lines() {
            let v: Value = serde_json::from_str(line).expect("journal line is JSON");
            let index = v["index"].as_u64().expect("index");
            assert_eq!(v["seed"].as_u64(), Some(point_seed(11, index)));
        }
        // Second run replays every point: same values, nothing re-run
        // (the closure would panic if called again).
        let replayed = rows(try_sweep(
            &spec,
            &points,
            |_: &u64, _| -> Result<f64, SimError> {
                panic!("no point should re-run from a complete journal")
            },
        ));
        let first_json = serde_json::to_string(&first).unwrap();
        let replay_json = serde_json::to_string(&replayed).unwrap();
        assert_eq!(first_json, replay_json, "replay must be byte-identical");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumable_sweep_retries_failed_points_and_heals() {
        let path = temp_journal("heal");
        std::fs::remove_file(&path).ok();
        let points: Vec<u64> = (0..5).collect();
        let ctl = RunCtl::unlimited();
        let spec = journaled(11, &ctl, &path, None, false);
        let broken = results(try_sweep(&spec, &points, |&p, seed| {
            assert!(p != 2, "injected crash at point two");
            Ok(p * 1000 + seed % 100)
        }));
        assert!(broken[2].is_err());
        let journal_lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(journal_lines, 4, "failed points are not journaled");
        // Resume without the injected failure: only point 2 runs.
        let reruns = AtomicUsize::new(0);
        let healed = rows(try_sweep(&spec, &points, |&p, seed| {
            reruns.fetch_add(1, Ordering::Relaxed);
            Ok(p * 1000 + seed % 100)
        }));
        assert_eq!(reruns.load(Ordering::Relaxed), 1);
        let direct = rows(try_sweep(&SweepSpec::new(11, &ctl), &points, |&p, seed| {
            Ok(p * 1000 + seed % 100)
        }));
        assert_eq!(healed, direct);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_journal_line_is_rerun_not_an_error() {
        let path = temp_journal("torn");
        std::fs::remove_file(&path).ok();
        let points: Vec<u64> = (0..3).collect();
        let ctl = RunCtl::unlimited();
        let spec = journaled(11, &ctl, &path, None, false);
        rows(try_sweep(&spec, &points, |&p, _| Ok(p * 2)));
        // Tear the final line mid-write, as a crash would.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn: String = text[..text.len() - 20].to_string();
        std::fs::write(&path, &torn).unwrap();
        let reruns = AtomicUsize::new(0);
        let resumed = rows(try_sweep(&spec, &points, |&p, _| {
            reruns.fetch_add(1, Ordering::Relaxed);
            Ok(p * 2)
        }));
        assert_eq!(
            reruns.load(Ordering::Relaxed),
            1,
            "only the torn point re-runs"
        );
        for (i, r) in resumed.iter().enumerate() {
            assert_eq!(r, &(i as u64 * 2));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_so_a_second_crash_still_resumes() {
        let path = temp_journal("torn-twice");
        std::fs::remove_file(&path).ok();
        let points: Vec<u64> = (0..4).collect();
        let ctl = RunCtl::unlimited();
        let spec = journaled(11, &ctl, &path, None, false);
        rows(try_sweep(&spec, &points, |&p, _| Ok(p * 3)));
        // Crash one: tear the final line, resume.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 15]).unwrap();
        rows(try_sweep(&spec, &points, |&p, _| Ok(p * 3)));
        // The torn line must be gone: every remaining line parses, so a
        // second crash-and-resume cannot mistake it for corruption.
        let healed = std::fs::read_to_string(&path).unwrap();
        for line in healed.lines().filter(|l| !l.trim().is_empty()) {
            serde_json::from_str::<serde_json::Value>(line)
                .unwrap_or_else(|e| panic!("unparseable post-resume line {line:?}: {e}"));
        }
        // Crash two: tear again, resume again — still healable.
        std::fs::write(&path, &healed[..healed.len() - 15]).unwrap();
        let resumed = rows(try_sweep(&spec, &points, |&p, _| Ok(p * 3)));
        for (i, r) in resumed.iter().enumerate() {
            assert_eq!(r, &(i as u64 * 3));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_from_a_different_sweep_is_rejected() {
        let path = temp_journal("mismatch");
        std::fs::remove_file(&path).ok();
        let points: Vec<u64> = (0..3).collect();
        let ctl = RunCtl::unlimited();
        rows(try_sweep(
            &journaled(11, &ctl, &path, None, false),
            &points,
            |&p, _| Ok(p),
        ));
        // Same journal, different master seed: derived seeds mismatch.
        let err = try_sweep(
            &journaled(12, &ctl, &path, None, false),
            &points,
            |&p, _| Ok(p),
        )
        .unwrap_err();
        match &err {
            SimError::Config(e) => {
                assert_eq!(e.context, "SweepJournal");
                assert!(e.message.contains("different sweep"), "{e}");
            }
            other => panic!("expected Config, got {other:?}"),
        }
        // A corrupted *non-final* line is also a hard error.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[0] = "{\"index\":0,\"seed\":1,\"hash\":\"beef\",\"payload\":0}";
        let patched = format!("{}\n", lines.join("\n"));
        std::fs::write(&path, patched).unwrap();
        let err = try_sweep(
            &journaled(11, &ctl, &path, None, false),
            &points,
            |&p, _| Ok(p),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    /// A complete final line is never mistaken for a torn one: a
    /// one-line journal from another sweep is rejected with a typed
    /// error and left byte-for-byte as it was, not truncated away.
    #[test]
    fn one_line_journal_from_a_different_sweep_is_rejected_and_kept() {
        let path = temp_journal("mismatch-one-line");
        std::fs::remove_file(&path).ok();
        let points: Vec<u64> = vec![5];
        let ctl = RunCtl::unlimited();
        let policy = RetryPolicy::new(2, std::time::Duration::ZERO);
        rows(try_sweep(
            &journaled(1, &ctl, &path, Some(policy.clone()), false),
            &points,
            |&p, _| Ok(p),
        ));
        let before = std::fs::read(&path).unwrap();
        assert_eq!(before.iter().filter(|&&b| b == b'\n').count(), 1);
        let err = try_sweep(
            &journaled(2, &ctl, &path, Some(policy), false),
            &points,
            |&p, _| Ok(p),
        )
        .unwrap_err();
        match &err {
            SimError::Config(e) => {
                assert_eq!(e.context, "SweepJournal");
                assert!(e.message.contains("different sweep"), "{e}");
            }
            other => panic!("expected Config, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), before, "journal untouched");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_sweep_heals_transient_failures_byte_identically() {
        use std::collections::HashMap;
        let points: Vec<u64> = (0..6).collect();
        let ctl = RunCtl::unlimited();
        let policy = RetryPolicy::new(3, std::time::Duration::ZERO);
        // Every point fails transiently on its first attempt; the
        // healed output must equal the fault-free run's exactly.
        let failures: Mutex<HashMap<usize, usize>> = Mutex::new(HashMap::new());
        let runs = try_sweep(&retrying(7, &ctl, policy), &points, |&p, seed| {
            let mut guard = failures.lock().unwrap();
            let count = guard.entry(p as usize).or_insert(0);
            *count += 1;
            if *count == 1 {
                return Err(SimError::Faulted {
                    unit: format!("point {p}"),
                    message: "injected transient".into(),
                });
            }
            Ok(p * 1000 + seed % 100)
        })
        .expect("no outer cancellation");
        let clean = rows(try_sweep(&SweepSpec::new(7, &ctl), &points, |&p, seed| {
            Ok(p * 1000 + seed % 100)
        }));
        for (run, direct) in runs.iter().zip(clean.iter()) {
            assert_eq!(run.result.as_ref().unwrap(), direct);
            assert_eq!(run.attempts, 2, "one failure, one healing retry");
        }
    }

    #[test]
    fn retry_sweep_exhausts_attempts_and_keeps_other_points() {
        let points: Vec<u64> = (0..4).collect();
        let ctl = RunCtl::unlimited();
        let policy = RetryPolicy::new(2, std::time::Duration::ZERO);
        let runs = try_sweep(&retrying(7, &ctl, policy), &points, |&p, _| {
            if p == 2 {
                return Err(SimError::Faulted {
                    unit: "point 2".into(),
                    message: "always faults".into(),
                });
            }
            Ok(p)
        })
        .expect("no outer cancellation");
        assert!(runs[2].result.is_err());
        assert_eq!(runs[2].attempts, 2, "budget of 2 fully spent");
        for (i, run) in runs.iter().enumerate() {
            if i != 2 {
                assert_eq!(run.result.as_ref().unwrap(), &(i as u64));
                assert_eq!(run.attempts, 1);
            }
        }
    }

    #[test]
    fn retry_sweep_never_retries_permanent_or_cancelled_points() {
        let points: Vec<u64> = (0..3).collect();
        let ctl = RunCtl::unlimited();
        let policy = RetryPolicy::new(5, std::time::Duration::ZERO);
        let calls = AtomicUsize::new(0);
        let runs = try_sweep(&retrying(7, &ctl, policy), &points, |&p, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            match p {
                0 => Err(SimError::invalid_input("bad point")),
                1 => Err(SimError::Cancelled {
                    at_sim_time: SimTime::ZERO,
                    reason: "per-point deadline".into(),
                }),
                _ => Ok(p),
            }
        })
        .expect("no outer cancellation");
        assert_eq!(calls.load(Ordering::Relaxed), 3, "one call per point");
        assert_eq!(runs[0].attempts, 1);
        assert_eq!(runs[1].attempts, 1);
        assert!(matches!(
            &runs[0].result,
            Err(SimError::InvalidInput { .. })
        ));
        assert!(matches!(&runs[1].result, Err(SimError::Cancelled { .. })));
    }

    #[test]
    fn quarantined_points_are_tombstoned_and_skipped_on_resume() {
        let path = temp_journal("tombstone");
        std::fs::remove_file(&path).ok();
        let points: Vec<u64> = (0..5).collect();
        let ctl = RunCtl::unlimited();
        let policy = RetryPolicy::new(2, std::time::Duration::ZERO);
        let spec = |retry_failed| journaled(11, &ctl, &path, Some(policy.clone()), retry_failed);
        let poison = |&p: &u64, seed: u64| {
            if p == 3 {
                return Err(SimError::Faulted {
                    unit: "point 3".into(),
                    message: "poison".into(),
                });
            }
            Ok(p * 10 + seed % 10)
        };
        let first = try_sweep(&spec(false), &points, poison).expect("first run");
        assert!(first[3].result.is_err());
        assert_eq!(first[3].attempts, 2);
        // The journal holds 4 rows + 1 tombstone, all hash-validated.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        let tombstones: Vec<&str> = text.lines().filter(|l| l.contains("tombstone")).collect();
        assert_eq!(tombstones.len(), 1);
        let v: Value = serde_json::from_str(tombstones[0]).unwrap();
        assert_eq!(v["index"].as_u64(), Some(3));
        assert_eq!(v["attempts"].as_u64(), Some(2));
        // Resume: the tombstone is skipped deterministically — the
        // closure must not run for point 3 even though it would now
        // succeed.
        let reruns = AtomicUsize::new(0);
        let resumed = try_sweep(&spec(false), &points, |&p, seed| {
            reruns.fetch_add(1, Ordering::Relaxed);
            Ok(p * 10 + seed % 10)
        })
        .expect("resume");
        assert_eq!(reruns.load(Ordering::Relaxed), 0, "nothing re-runs");
        assert!(resumed[3].result.is_err());
        assert_eq!(resumed[3].attempts, 2, "recorded attempt count replays");
        let recorded = resumed[3].result.as_ref().unwrap_err();
        assert!(recorded.to_string().contains("poison"), "{recorded}");
        // --retry-failed re-runs the tombstoned point; its fresh
        // success supersedes the tombstone for every later replay.
        let healed = try_sweep(&spec(true), &points, |&p, seed| Ok(p * 10 + seed % 10))
            .expect("retry-failed run");
        assert_eq!(
            healed[3].result.as_ref().unwrap(),
            &(30 + point_seed(11, 3) % 10)
        );
        let after = try_sweep(
            &spec(false),
            &points,
            |_: &u64, _| -> Result<u64, SimError> { panic!("fully journaled: nothing re-runs") },
        )
        .expect("post-heal replay");
        assert!(after.iter().all(|run| run.result.is_ok()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tombstones_from_a_foreign_journal_are_rejected() {
        let path = temp_journal("foreign-tombstone");
        std::fs::remove_file(&path).ok();
        let points: Vec<u64> = (0..3).collect();
        let ctl = RunCtl::unlimited();
        let policy = RetryPolicy::new(1, std::time::Duration::ZERO);
        let spec = |seed| journaled(seed, &ctl, &path, Some(policy.clone()), false);
        try_sweep(&spec(11), &points, |&p, _| {
            if p == 1 {
                Err(SimError::Faulted {
                    unit: "point 1".into(),
                    message: "poison".into(),
                })
            } else {
                Ok(p)
            }
        })
        .expect("seed the journal");
        // A different master seed must reject the whole journal,
        // tombstone lines included.
        let err = try_sweep(&spec(12), &points, |&p, _| Ok(p)).unwrap_err();
        assert!(matches!(&err, SimError::Config(e) if e.context == "SweepJournal"));
        // A tampered tombstone body (hash no longer matches) is corrupt.
        // Replay accepts lines in any order, so rewrite the journal
        // with the tombstone *first* — corruption of a non-final line
        // is a hard typed error, never silently re-run.
        let text = std::fs::read_to_string(&path).unwrap();
        let (tombstones, rows): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|l| l.contains("tombstone"));
        assert_eq!(tombstones.len(), 1, "exactly one quarantined point");
        let doctored = tombstones[0].replace("poison", "doctored");
        assert_ne!(doctored, tombstones[0]);
        let mut reordered = vec![doctored.as_str()];
        reordered.extend(rows);
        std::fs::write(&path, format!("{}\n", reordered.join("\n"))).unwrap();
        let err = try_sweep(&spec(11), &points, |&p, _| Ok(p)).unwrap_err();
        match &err {
            SimError::Config(e) => {
                assert_eq!(e.context, "SweepJournal");
                assert!(e.message.contains("hash mismatch"), "{e}");
            }
            other => panic!("expected Config, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn env_init_accepts_absent_or_valid_knob_only() {
        // The process environment is shared across the test binary, so
        // only assert properties that hold for whatever SUSTAIN_THREADS
        // the runner exported: absent → Ok(None); a valid integer →
        // Ok(Some(n)). The rejection of malformed values is asserted in
        // the subprocess CLI tests (tests/cli.rs), where the environment
        // is controlled per invocation.
        match std::env::var(THREADS_ENV) {
            Err(_) => assert_eq!(init_threads_from_env(), Ok(None)),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) => assert_eq!(init_threads_from_env(), Ok(Some(n))),
                Err(_) => assert!(init_threads_from_env().is_err()),
            },
        }
    }
}
