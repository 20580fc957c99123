//! The keyed, capacity-bounded per-topology context cache.
//!
//! Keys are canonical topology names (`Topology::name`, which determines the
//! processor graph and hence its partial-cube labeling). Values are shared
//! [`Arc<TopologyContext>`]s, each holding one recognized labeling;
//! everything that depends on the request (extension bits, digit
//! permutations, scratch buffers) is built per run by the TIMER driver.
//!
//! Construction is **single-flight**: when several requests miss on the same
//! key concurrently, exactly one builds the context (partial-cube
//! recognition is the expensive part) while the others wait on a condvar and
//! then share the result — asserted by the cache tests via the miss counter.
//! A failed build is *not* cached: the next requester retries, which keeps a
//! transient fault from poisoning the key forever.
//!
//! Per `docs/RESILIENCE.md`, the cache is a latency optimization and never a
//! correctness dependency: a hit must produce byte-identical enhancement
//! results to a miss (pinned by the cache tests and the daemon integration
//! test), so eviction at capacity is always safe.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use tie_timer::{TieError, TopologyContext};
use tie_trace::{Phase, TraceEvent, TraceHandle, TraceLevel};

use tie_fault::FaultHandle;

/// Whether a lookup found a resident context or had to build one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from a resident context (labeling reconstruction skipped).
    Hit,
    /// Built (and cached) a fresh context.
    Miss,
}

impl CacheDisposition {
    /// Stable wire name: `"hit"` / `"miss"`.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
        }
    }
}

/// Counters of one cache, cumulative since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Resident entries.
    pub entries: usize,
    /// Lookups served from a resident context.
    pub hits: u64,
    /// Contexts built (one per single-flight construction).
    pub misses: u64,
    /// Entries dropped at capacity.
    pub evictions: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    /// Resident contexts in LRU order: least-recently-used first. Linear
    /// scans are fine — capacities are single digits and the values are
    /// megabyte-scale contexts, not tiny entries.
    entries: Vec<(String, Arc<TopologyContext>)>,
    /// Keys currently being built by some thread (single-flight registry).
    building: Vec<String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The cache. Shareable across threads behind an `Arc`; all mutation happens
/// under one internal mutex (lookups are rare and cheap next to the
/// enhancements they gate).
#[derive(Debug)]
pub struct TopologyCache {
    capacity: usize,
    trace: TraceHandle,
    faults: FaultHandle,
    state: Mutex<CacheState>,
    cond: Condvar,
}

impl TopologyCache {
    /// A cache holding at most `capacity` contexts (`0` is clamped to 1 —
    /// a cache that cannot hold the entry it just built would turn every
    /// lookup into a miss and silently disable single-flight sharing).
    pub fn new(capacity: usize, trace: TraceHandle, faults: FaultHandle) -> Self {
        TopologyCache {
            capacity: capacity.max(1),
            trace,
            faults,
            state: Mutex::new(CacheState::default()),
            cond: Condvar::new(),
        }
    }

    /// Looks up `key`, building the context with `build` on a miss. Misses
    /// on the same key are single-flight: one builder runs, concurrent
    /// requesters wait and share the result (counted as hits — they did not
    /// build).
    ///
    /// # Errors
    /// Propagates `build`'s error to the caller that ran it; the failure is
    /// not cached, so later lookups retry.
    pub fn get_or_build<F>(
        &self,
        key: &str,
        build: F,
    ) -> Result<(Arc<TopologyContext>, CacheDisposition), TieError>
    where
        F: FnOnce() -> Result<TopologyContext, TieError>,
    {
        let mut state = self.lock();
        loop {
            if let Some(idx) = state.entries.iter().position(|(k, _)| k == key) {
                let entry = state.entries.remove(idx);
                let ctx = Arc::clone(&entry.1);
                state.entries.push(entry);
                state.hits += 1;
                self.emit(&state, key, CacheDisposition::Hit);
                return Ok((ctx, CacheDisposition::Hit));
            }
            if state.building.iter().any(|k| k == key) {
                // Someone is building this key: wait for them, then re-check.
                // On their success the hit branch above fires; on their
                // failure this thread falls through and becomes the builder.
                state = self.wait(state);
                continue;
            }
            break;
        }
        state.building.push(key.to_string());
        drop(state);

        // Build outside the lock: recognition can take a while and must not
        // block lookups of other topologies. The `cache_build` delay site
        // makes the concurrent-miss window deterministic in tests.
        self.faults.delay("cache_build");
        let span = self.trace.span(Phase::Cache, None, None);
        let built = build();
        if built.is_ok() {
            span.emit();
        }

        let mut state = self.lock();
        state.building.retain(|k| k != key);
        self.cond.notify_all();
        let ctx = match built {
            Ok(ctx) => Arc::new(ctx),
            Err(e) => return Err(e),
        };
        state.misses += 1;
        state.entries.push((key.to_string(), Arc::clone(&ctx)));
        while state.entries.len() > self.capacity {
            state.entries.remove(0);
            state.evictions += 1;
        }
        self.emit(&state, key, CacheDisposition::Miss);
        Ok((ctx, CacheDisposition::Miss))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            entries: state.entries.len(),
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
        }
    }

    fn emit(&self, state: &CacheState, key: &str, disposition: CacheDisposition) {
        // Guarded so the disabled-trace path never allocates the key string.
        if self.trace.enabled(TraceLevel::Phase) {
            self.trace.emit(TraceEvent::Cache {
                key: key.to_string(),
                disposition: disposition.name(),
                entries: state.entries.len(),
                hits: state.hits,
                misses: state.misses,
                evictions: state.evictions,
            });
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        match self.state.lock() {
            Ok(guard) => guard,
            // Builders never mutate under the lock while running user code
            // (the build happens with the lock dropped), so the state is
            // consistent even after a panic elsewhere.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, CacheState>) -> MutexGuard<'a, CacheState> {
        match self.cond.wait(guard) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}
