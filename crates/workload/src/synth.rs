//! Synthetic workload-trace generation.
//!
//! Substitution note (see `DESIGN.md`): the paper's §3.4 observations come
//! from SuperMUC-NG production job data, which is not public. This
//! generator produces traces with the standard statistical shape of HPC
//! workloads — diurnally modulated Poisson arrivals, lognormal runtimes,
//! power-of-two-leaning node counts, heavy walltime overestimation — plus a
//! configurable *over-allocation* distribution that reproduces the §3.4
//! finding that "many users allocate more nodes to their jobs than they
//! require".

use crate::job::{Job, JobBuilder, JobClass};
use crate::speedup::SpeedupModel;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use sustain_sim_core::cache::{CacheStats, LruCache};
use sustain_sim_core::error::{
    ensure_at_least, ensure_finite, ensure_fraction, ensure_non_negative, ensure_ordered,
    ensure_positive, env_knob_usize, ConfigError, Validate,
};
use sustain_sim_core::hash::{CanonicalHash, CanonicalHasher};
use sustain_sim_core::rng::RngStream;
use sustain_sim_core::time::{SimDuration, SimTime, HOUR};
use sustain_sim_core::units::Power;

/// Parameters of the synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Mean job arrival rate, jobs per hour (before diurnal modulation).
    pub arrivals_per_hour: f64,
    /// Amplitude of the diurnal arrival modulation, in `[0,1)`: arrivals
    /// peak during working hours.
    pub diurnal_amplitude: f64,
    /// `mu` of the lognormal runtime distribution (log-seconds).
    pub runtime_log_mean: f64,
    /// `sigma` of the lognormal runtime distribution.
    pub runtime_log_std: f64,
    /// Runtimes are clamped to this ceiling (queue walltime limit).
    pub max_runtime: SimDuration,
    /// Largest node request the generator produces.
    pub max_nodes: u32,
    /// Probability that a job is malleable (§3.2 adoption level).
    pub malleable_fraction: f64,
    /// Probability that a job is checkpointable (§3.3).
    pub checkpointable_fraction: f64,
    /// Fraction of jobs that over-allocate nodes (§3.4).
    pub overallocating_fraction: f64,
    /// Mean over-allocation factor for over-allocating jobs (≥ 1).
    pub overallocation_mean_factor: f64,
    /// Mean walltime-estimate overestimation factor (≥ 1).
    pub walltime_overestimate_mean: f64,
    /// Number of distinct users.
    pub users: u32,
    /// Range of per-node power draw `[low, high]` watts sampled per job.
    pub node_power_range_w: (f64, f64),
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            arrivals_per_hour: 6.0,
            diurnal_amplitude: 0.5,
            runtime_log_mean: 8.3, // median ≈ 4030 s ≈ 1.1 h
            runtime_log_std: 1.4,
            max_runtime: SimDuration::from_hours(48.0),
            max_nodes: 512,
            malleable_fraction: 0.0,
            checkpointable_fraction: 0.0,
            overallocating_fraction: 0.0,
            overallocation_mean_factor: 1.0,
            walltime_overestimate_mean: 2.0,
            users: 50,
            node_power_range_w: (350.0, 750.0),
        }
    }
}

impl Validate for WorkloadConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        const CTX: &str = "WorkloadConfig";
        ensure_positive(CTX, "arrivals_per_hour", self.arrivals_per_hour)?;
        // Amplitude 1 would zero the off-peak rate, which is legal; > 1
        // would make it negative.
        ensure_fraction(CTX, "diurnal_amplitude", self.diurnal_amplitude)?;
        ensure_finite(CTX, "runtime_log_mean", self.runtime_log_mean)?;
        ensure_non_negative(CTX, "runtime_log_std", self.runtime_log_std)?;
        ensure_positive(CTX, "max_runtime", self.max_runtime.as_secs())?;
        ensure_at_least(CTX, "max_nodes", self.max_nodes as usize, 1)?;
        ensure_fraction(CTX, "malleable_fraction", self.malleable_fraction)?;
        ensure_fraction(CTX, "checkpointable_fraction", self.checkpointable_fraction)?;
        ensure_fraction(CTX, "overallocating_fraction", self.overallocating_fraction)?;
        ensure_finite(
            CTX,
            "overallocation_mean_factor",
            self.overallocation_mean_factor,
        )?;
        if self.overallocation_mean_factor < 1.0 {
            return Err(ConfigError::new(
                CTX,
                "overallocation_mean_factor",
                format!("must be >= 1, got {}", self.overallocation_mean_factor),
            ));
        }
        ensure_finite(
            CTX,
            "walltime_overestimate_mean",
            self.walltime_overestimate_mean,
        )?;
        if self.walltime_overestimate_mean < 1.0 {
            return Err(ConfigError::new(
                CTX,
                "walltime_overestimate_mean",
                format!("must be >= 1, got {}", self.walltime_overestimate_mean),
            ));
        }
        ensure_at_least(CTX, "users", self.users as usize, 1)?;
        let (lo, hi) = self.node_power_range_w;
        ensure_non_negative(CTX, "node_power_range_w.0", lo)?;
        ensure_non_negative(CTX, "node_power_range_w.1", hi)?;
        ensure_ordered(CTX, "node_power_range_w.0", lo, "node_power_range_w.1", hi)
    }
}

impl CanonicalHash for WorkloadConfig {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_f64(self.arrivals_per_hour);
        hasher.write_f64(self.diurnal_amplitude);
        hasher.write_f64(self.runtime_log_mean);
        hasher.write_f64(self.runtime_log_std);
        self.max_runtime.canonical_hash_into(hasher);
        hasher.write_u32(self.max_nodes);
        hasher.write_f64(self.malleable_fraction);
        hasher.write_f64(self.checkpointable_fraction);
        hasher.write_f64(self.overallocating_fraction);
        hasher.write_f64(self.overallocation_mean_factor);
        hasher.write_f64(self.walltime_overestimate_mean);
        hasher.write_u32(self.users);
        hasher.write_f64(self.node_power_range_w.0);
        hasher.write_f64(self.node_power_range_w.1);
    }
}

impl WorkloadConfig {
    /// The configuration for the §3.4 over-allocation study: a SuperMUC-NG-
    /// like CPU workload in which roughly 40 % of jobs request 2–4× the
    /// nodes they can use.
    pub fn supermuc_ng_like() -> WorkloadConfig {
        WorkloadConfig {
            arrivals_per_hour: 8.0,
            max_nodes: 1024,
            overallocating_fraction: 0.4,
            overallocation_mean_factor: 2.5,
            ..WorkloadConfig::default()
        }
    }

    /// A malleability-friendly workload for the §3.2 experiments.
    pub fn malleable_mix(malleable_fraction: f64) -> WorkloadConfig {
        WorkloadConfig {
            malleable_fraction,
            checkpointable_fraction: 0.5,
            ..WorkloadConfig::default()
        }
    }
}

/// Generates a job trace covering `horizon` with deterministic output for
/// a given seed.
pub fn generate(config: &WorkloadConfig, horizon: SimDuration, seed: u64) -> Vec<Job> {
    assert!(
        config.arrivals_per_hour > 0.0,
        "arrival rate must be positive"
    );
    assert!(config.max_nodes >= 1);
    let root = RngStream::new(seed);
    let mut arrivals = root.derive("arrivals");
    let mut runtimes = root.derive("runtimes");
    let mut sizes = root.derive("sizes");
    let mut classes = root.derive("classes");
    let mut users = root.derive("users");
    let mut powers = root.derive("powers");
    let mut overalloc = root.derive("overalloc");

    let mut jobs = Vec::new();
    let mut t = 0.0; // seconds
    let mut id = 0u64;
    let horizon_s = horizon.as_secs();
    let peak_rate = config.arrivals_per_hour * (1.0 + config.diurnal_amplitude);

    // Thinned (non-homogeneous) Poisson process: draw at the peak rate and
    // accept with probability rate(t)/peak.
    loop {
        t += arrivals.exponential(peak_rate / HOUR);
        if t >= horizon_s {
            break;
        }
        let st = SimTime::from_secs(t);
        let hour = st.hour_of_day();
        // Working-hours bump centred on 14h.
        let phase = (hour - 14.0) / 24.0 * std::f64::consts::TAU;
        let rate = config.arrivals_per_hour * (1.0 + config.diurnal_amplitude * phase.cos());
        if !arrivals.bernoulli(rate / peak_rate) {
            continue;
        }

        id += 1;
        // Runtime: lognormal, clamped.
        let runtime_s = runtimes
            .lognormal(config.runtime_log_mean, config.runtime_log_std)
            .min(config.max_runtime.as_secs())
            .max(60.0);
        let runtime = SimDuration::from_secs(runtime_s);

        // Node count: log2-uniform with a bias toward small jobs, snapped
        // to powers of two half the time (a robust stylized fact of HPC
        // traces).
        let max_log2 = (config.max_nodes as f64).log2();
        let raw = 2f64.powf(sizes.uniform_range(0.0, max_log2));
        let nodes = if sizes.bernoulli(0.5) {
            let snapped = 2f64.powf(raw.log2().round());
            snapped.max(1.0).min(config.max_nodes as f64) as u32
        } else {
            raw.max(1.0).min(config.max_nodes as f64) as u32
        };

        // Over-allocation: requested nodes inflate relative to what the job
        // can exploit. The factor is drawn unconditionally so that sweeps
        // over `overallocating_fraction` are pointwise monotone (the set of
        // over-allocating jobs grows as a superset with identical factors).
        let factor =
            1.0 + overalloc.exponential(1.0 / (config.overallocation_mean_factor - 1.0).max(1e-9));
        let (requested, efficient) = if overalloc.bernoulli(config.overallocating_fraction) {
            let requested = ((nodes as f64 * factor).round() as u32).min(config.max_nodes);
            (requested.max(nodes), nodes)
        } else {
            (nodes, nodes)
        };

        let walltime = runtime
            * (1.0
                + classes.exponential(1.0 / (config.walltime_overestimate_mean - 1.0).max(1e-9)));

        let class = if classes.bernoulli(config.malleable_fraction) {
            JobClass::Malleable {
                min_nodes: (efficient / 4).max(1),
                max_nodes: requested.max(efficient),
            }
        } else {
            JobClass::Rigid
        };

        let speedup = SpeedupModel::Amdahl {
            serial_fraction: classes.uniform_range(0.001, 0.05),
        };
        let power = Power::from_watts(
            powers.uniform_range(config.node_power_range_w.0, config.node_power_range_w.1),
        );

        let job = JobBuilder::new(id, st, requested, runtime)
            .user(users.uniform_u64(config.users as u64) as u32)
            .efficient_nodes(efficient)
            .speedup(speedup)
            .class(class)
            .walltime(walltime)
            .power_per_node(power)
            .checkpointable(classes.bernoulli(config.checkpointable_fraction))
            .build();
        jobs.push(job);
    }
    jobs
}

/// Default capacity of the process-wide [`WorkloadCache`]. Job sets are
/// the largest cached artifacts (tens of thousands of jobs for a busy
/// month), so the bound is tighter than the trace cache's.
pub const DEFAULT_WORKLOAD_CACHE_CAPACITY: usize = 64;

/// Environment variable overriding the global workload cache capacity.
/// `0` disables the cache entirely (every request regenerates), as for
/// every cache built on `sim-core::cache::LruCache`.
pub const WORKLOAD_CACHE_CAP_ENV: &str = "SUSTAIN_WORKLOAD_CACHE_CAP";

/// Cache key for a synthesized job set: the canonical fingerprint of the
/// [`WorkloadConfig`] plus the exact horizon bits and the seed — every
/// input [`generate`] depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    config_fingerprint: u64,
    horizon_bits: u64,
    seed: u64,
}

impl WorkloadKey {
    /// Fingerprint a `(config, horizon, seed)` generation request.
    pub fn new(config: &WorkloadConfig, horizon: SimDuration, seed: u64) -> WorkloadKey {
        WorkloadKey {
            config_fingerprint: config.canonical_hash(),
            horizon_bits: horizon.as_secs().to_bits(),
            seed,
        }
    }
}

/// Process-wide cache of synthesized job sets.
///
/// Sweeps that vary only policy or budget parameters re-request the same
/// `(config, horizon, seed)` workload for every point; generation is
/// deterministic and the job set is immutable once built, so one
/// generation can serve the whole sweep as a shared `Arc<Vec<Job>>`.
///
/// Capacity `0` disables caching (see [`WORKLOAD_CACHE_CAP_ENV`]).
#[derive(Debug)]
pub struct WorkloadCache {
    inner: LruCache<WorkloadKey, Arc<Vec<Job>>>,
}

impl Default for WorkloadCache {
    fn default() -> Self {
        WorkloadCache::with_capacity(DEFAULT_WORKLOAD_CACHE_CAPACITY)
    }
}

impl WorkloadCache {
    /// Create an empty cache with the default capacity bound.
    pub fn new() -> WorkloadCache {
        WorkloadCache::default()
    }

    /// Create an empty cache holding at most `capacity` job sets
    /// (`0` = caching disabled).
    pub fn with_capacity(capacity: usize) -> WorkloadCache {
        WorkloadCache {
            inner: LruCache::with_capacity(capacity),
        }
    }

    /// Current capacity bound (`0` = caching disabled).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Change the capacity bound. Setting `0` disables the cache and
    /// drops all entries; a smaller bound evicts down immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.inner.set_capacity(capacity);
    }

    /// Fetch the job set for `(config, horizon, seed)`, generating and
    /// inserting it on first use. Hits return a clone of the cached `Arc`
    /// (pointer-identical jobs) and refresh the entry's LRU position.
    /// With capacity `0` every call generates afresh and no counter
    /// advances.
    pub fn get_or_generate(
        &self,
        config: &WorkloadConfig,
        horizon: SimDuration,
        seed: u64,
    ) -> Arc<Vec<Job>> {
        let key = WorkloadKey::new(config, horizon, seed);
        if let Some(jobs) = self.inner.lookup(&key) {
            return jobs;
        }
        // Generate outside any lock: racing first requests may generate
        // twice, but generation is deterministic so both produce identical
        // job sets and the first insert wins. The fault site sits here so
        // an injected panic never poisons the cache lock.
        sustain_sim_core::faultpoint!(infallible "workload::job_fill");
        let jobs = Arc::new(generate(config, horizon, seed));
        self.inner.insert_after_miss(key, jobs)
    }

    /// Hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Number of cached job sets.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Drop all cached job sets, preserving the counters.
    pub fn clear(&self) {
        self.inner.clear();
    }
}

/// The process-wide [`WorkloadCache`] used by [`generate_arc`].
///
/// Capacity defaults to [`DEFAULT_WORKLOAD_CACHE_CAPACITY`] and can be
/// overridden (first use wins) via [`WORKLOAD_CACHE_CAP_ENV`], or changed
/// at runtime with [`WorkloadCache::set_capacity`].
pub fn global_workload_cache() -> &'static WorkloadCache {
    static CACHE: OnceLock<WorkloadCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        // Lazy path: reachable from deep inside a scenario run, so a
        // malformed capacity cannot surface as a `Result` here — warn
        // loudly (once: the cache is built once) and keep the default
        // instead of silently ignoring the knob. Boundary code gets the
        // typed-error behavior from [`init_workload_cache_cap_from_env`].
        let cap = match env_knob_usize(WORKLOAD_CACHE_CAP_ENV) {
            Ok(Some(cap)) => cap,
            Ok(None) => DEFAULT_WORKLOAD_CACHE_CAPACITY,
            Err(e) => {
                eprintln!(
                    "warning: {e}; keeping the default workload-cache \
                     capacity of {DEFAULT_WORKLOAD_CACHE_CAPACITY}"
                );
                DEFAULT_WORKLOAD_CACHE_CAPACITY
            }
        };
        WorkloadCache::with_capacity(cap)
    })
}

/// Strictly applies [`WORKLOAD_CACHE_CAP_ENV`] to the process-wide cache
/// if set; returns the applied capacity. Boundary code (CLI/service
/// startup) calls this once so a malformed value becomes a typed
/// [`ConfigError`] instead of a silently-used default. Safe to call
/// whether or not the cache was already touched: the capacity is
/// (re)applied to the live cache, evicting down if needed.
pub fn init_workload_cache_cap_from_env() -> Result<Option<usize>, ConfigError> {
    let parsed = env_knob_usize(WORKLOAD_CACHE_CAP_ENV)?;
    if let Some(cap) = parsed {
        global_workload_cache().set_capacity(cap);
    }
    Ok(parsed)
}

/// Cache-backed variant of [`generate`]: returns a shared `Arc<Vec<Job>>`
/// from the process-wide [`WorkloadCache`], generating at most once per
/// distinct `(config, horizon, seed)`.
pub fn generate_arc(config: &WorkloadConfig, horizon: SimDuration, seed: u64) -> Arc<Vec<Job>> {
    global_workload_cache().get_or_generate(config, horizon, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::stats::RunningStats;

    fn gen_default(hours: f64, seed: u64) -> Vec<Job> {
        generate(
            &WorkloadConfig::default(),
            SimDuration::from_hours(hours),
            seed,
        )
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen_default(48.0, 11);
        let b = gen_default(48.0, 11);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        let c = gen_default(48.0, 12);
        assert_ne!(a.len(), c.len());
    }

    #[test]
    fn arrival_rate_roughly_matches() {
        let jobs = gen_default(24.0 * 14.0, 3);
        let rate = jobs.len() as f64 / (24.0 * 14.0);
        assert!((rate - 6.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn arrivals_sorted_and_within_horizon() {
        let jobs = gen_default(72.0, 5);
        let mut last = SimTime::ZERO;
        for j in &jobs {
            assert!(j.submit >= last);
            assert!(j.submit < SimTime::from_hours(72.0));
            last = j.submit;
        }
        // Ids are unique and increasing.
        for w in jobs.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn runtimes_within_limits_and_lognormal_ish() {
        let cfg = WorkloadConfig::default();
        let jobs = generate(&cfg, SimDuration::from_hours(24.0 * 30.0), 7);
        let mut rs = RunningStats::new();
        for j in &jobs {
            let r = j.runtime_requested();
            assert!(r.as_secs() >= 59.999);
            // Tolerance: work = runtime × speedup then / speedup round-trips
            // through floats.
            assert!(r.as_secs() <= cfg.max_runtime.as_secs() * (1.0 + 1e-9));
            rs.push(r.as_secs());
        }
        // Heavy right-tail: mean well above median territory.
        assert!(rs.mean() > 4_000.0, "mean {}", rs.mean());
    }

    #[test]
    fn node_counts_bounded_and_diverse() {
        let cfg = WorkloadConfig::default();
        let jobs = generate(&cfg, SimDuration::from_hours(24.0 * 20.0), 13);
        let mut small = 0;
        let mut large = 0;
        for j in &jobs {
            assert!(j.requested_nodes >= 1 && j.requested_nodes <= cfg.max_nodes);
            if j.requested_nodes <= 4 {
                small += 1;
            }
            if j.requested_nodes >= 128 {
                large += 1;
            }
        }
        assert!(small > 0 && large > 0, "small {small}, large {large}");
    }

    #[test]
    fn default_config_has_no_overallocation() {
        for j in gen_default(24.0 * 7.0, 17) {
            assert_eq!(j.overallocation_factor(), 1.0);
            assert_eq!(j.class, JobClass::Rigid);
        }
    }

    #[test]
    fn supermuc_like_trace_overallocates() {
        let cfg = WorkloadConfig::supermuc_ng_like();
        let jobs = generate(&cfg, SimDuration::from_hours(24.0 * 30.0), 19);
        let over: Vec<_> = jobs
            .iter()
            .filter(|j| j.overallocation_factor() > 1.0)
            .collect();
        let frac = over.len() as f64 / jobs.len() as f64;
        assert!((frac - 0.4).abs() < 0.08, "over-allocating fraction {frac}");
        let mut rs = RunningStats::new();
        for j in &over {
            assert!(j.requested_nodes > j.efficient_nodes);
            rs.push(j.overallocation_factor());
        }
        assert!(rs.mean() > 1.5, "mean factor {}", rs.mean());
    }

    #[test]
    fn malleable_mix_produces_malleable_jobs() {
        let cfg = WorkloadConfig::malleable_mix(0.6);
        let jobs = generate(&cfg, SimDuration::from_hours(24.0 * 10.0), 23);
        let malleable = jobs.iter().filter(|j| j.class.is_malleable()).count();
        let frac = malleable as f64 / jobs.len() as f64;
        assert!((frac - 0.6).abs() < 0.1, "malleable fraction {frac}");
        for j in &jobs {
            if let JobClass::Malleable {
                min_nodes,
                max_nodes,
            } = j.class
            {
                assert!(min_nodes >= 1);
                assert!(min_nodes <= max_nodes);
                assert!(max_nodes >= j.efficient_nodes.min(j.requested_nodes));
            }
        }
    }

    #[test]
    fn walltime_estimates_overestimate() {
        let jobs = gen_default(24.0 * 10.0, 29);
        let mut over = 0;
        for j in &jobs {
            assert!(j.walltime_estimate >= j.runtime_requested());
            if j.walltime_estimate > j.runtime_requested() * 1.01 {
                over += 1;
            }
        }
        assert!(over as f64 / jobs.len() as f64 > 0.9);
    }

    #[test]
    fn workload_cache_hits_are_arc_identical_and_match_uncached() {
        let cache = WorkloadCache::new();
        let cfg = WorkloadConfig::default();
        let horizon = SimDuration::from_hours(48.0);
        let a = cache.get_or_generate(&cfg, horizon, 11);
        let b = cache.get_or_generate(&cfg, horizon, 11);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(*a, generate(&cfg, horizon, 11));
        // Config, horizon and seed are all part of the key.
        cache.get_or_generate(&cfg, horizon, 12);
        cache.get_or_generate(&cfg, SimDuration::from_hours(24.0), 11);
        let mut other = cfg.clone();
        other.arrivals_per_hour += 1.0;
        cache.get_or_generate(&other, horizon, 11);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn workload_cache_capacity_zero_disables_caching() {
        let cache = WorkloadCache::with_capacity(0);
        let cfg = WorkloadConfig::default();
        let horizon = SimDuration::from_hours(24.0);
        let a = cache.get_or_generate(&cfg, horizon, 5);
        let b = cache.get_or_generate(&cfg, horizon, 5);
        assert!(
            !std::sync::Arc::ptr_eq(&a, &b),
            "disabled cache must not share"
        );
        assert_eq!(*a, *b, "regeneration is deterministic");
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        // Disabling a populated cache drops its entries.
        let warm = WorkloadCache::with_capacity(4);
        warm.get_or_generate(&cfg, horizon, 5);
        assert_eq!(warm.len(), 1);
        warm.set_capacity(0);
        assert!(warm.is_empty());
    }

    #[test]
    fn diurnal_modulation_shifts_arrivals_to_daytime() {
        let cfg = WorkloadConfig {
            diurnal_amplitude: 0.9,
            ..WorkloadConfig::default()
        };
        let jobs = generate(&cfg, SimDuration::from_hours(24.0 * 60.0), 31);
        let day = jobs
            .iter()
            .filter(|j| (8.0..20.0).contains(&j.submit.hour_of_day()))
            .count();
        let night = jobs.len() - day;
        assert!(
            day as f64 > 1.3 * night as f64,
            "day {day} vs night {night}"
        );
    }
}
