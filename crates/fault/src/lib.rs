//! # tie-fault
//!
//! Seeded, deterministic fault injection for chaos-testing the TiMEr
//! pipeline. The production code paths carry a cheap [`FaultHandle`]
//! (`tie-trace`-style plumbing: a disabled handle is one branch per probe
//! site), and a [`FaultPlan`] arms specific faults at specific places:
//!
//! * **round panics** at chosen hierarchy rounds (`panic@R`) — exercising
//!   the TIMER round panic guard, which turns the first one into
//!   `TieError::WorkerPanicked`,
//! * **IO errors** on the n-th counted IO operation (`io@N`) — exercising
//!   the typed-error paths of `tie-graph::io` and the `mapd` socket framing
//!   layer (readers and socket frames share one operation counter),
//! * **artificial delays** at named pipeline sites (`delay:SITE=MICROS`) —
//!   making deadline expiry deterministic in tests; the registered sites
//!   ([`SITES`]) include the daemon's `socket_io` and `cache_build` probes.
//!
//! Every fault is *consumed* when it fires: a panic armed once at round `R`
//! hits the first run of round `R` only. Arm a fault more than once
//! (`panic@R*2`) to make it fire again on a later run with the same handle.
//!
//! Binaries pick up a plan from the `TIE_FAULTS` environment variable via
//! [`FaultHandle::from_env`]; libraries never read the environment — they
//! only probe the handle they were given, so injection is always explicit
//! and seeded, never ambient.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable binaries read fault plans from (see
/// [`FaultHandle::from_env`]).
pub const FAULTS_ENV_VAR: &str = "TIE_FAULTS";

/// Prefix of every injected panic payload, so panic hooks and tests can
/// distinguish injected faults from real bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// The fixed vocabulary of fault-injection sites: every `delay`/`with_delay`
/// site name used anywhere in the workspace must come from this list, which
/// `tie-lint`'s `registered-sites` rule enforces statically. The first three
/// are the delay probes in `tie-timer`'s driver; `io` is probed by
/// [`FaultHandle::io_fault`] before every counted reader operation (the
/// `mapd` socket framing layer shares that probe and its operation counter);
/// `socket_io` delays every socket frame read/write and `cache_build` delays
/// every per-topology cache construction in `mapd`.
pub const SITES: &[&str] = &[
    "hierarchy_build",
    "assemble",
    "delta_scan",
    "io",
    "socket_io",
    "cache_build",
];

/// A deterministic fault schedule. Build one with the combinators below or
/// parse the `TIE_FAULTS` grammar with [`FaultPlan::parse`]; activate it by
/// wrapping it in a [`FaultHandle`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Hierarchy round → number of attempts of that round that panic.
    panic_rounds: BTreeMap<usize, u32>,
    /// 1-based indices of reader IO operations that fail.
    io_ops: BTreeSet<u64>,
    /// Site name → artificial delay per visit.
    delays: BTreeMap<String, Duration>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.panic_rounds.is_empty() && self.io_ops.is_empty() && self.delays.is_empty()
    }

    /// Arms one panic at the first attempt of hierarchy round `round`.
    pub fn with_panic_at_round(self, round: usize) -> Self {
        self.with_panic_at_round_times(round, 1)
    }

    /// Arms panics at the first `times` attempts of hierarchy round `round`
    /// (`times >= 2` makes a later run with the same handle panic at that
    /// round too).
    pub fn with_panic_at_round_times(mut self, round: usize, times: u32) -> Self {
        *self.panic_rounds.entry(round).or_insert(0) += times;
        self
    }

    /// Arms an IO failure on the `nth` (1-based) reader operation.
    pub fn with_io_fault(mut self, nth: u64) -> Self {
        self.io_ops.insert(nth.max(1));
        self
    }

    /// Arms an artificial delay of `delay` at every visit of `site`
    /// (the registered sites are listed in [`SITES`]).
    pub fn with_delay(mut self, site: &str, delay: Duration) -> Self {
        self.delays.insert(site.to_string(), delay);
        self
    }

    /// Parses the `TIE_FAULTS` grammar: comma-separated directives
    ///
    /// * `panic@R` / `panic@R*N` — N panics (default 1) at round R,
    /// * `io@N` — fail the Nth reader operation,
    /// * `delay:SITE=MICROS` — delay every visit of SITE by MICROS µs.
    ///
    /// Returns a one-line error naming the offending directive.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for directive in spec.split(',').map(str::trim).filter(|d| !d.is_empty()) {
            if let Some(rest) = directive.strip_prefix("panic@") {
                let (round, times) = match rest.split_once('*') {
                    Some((r, t)) => (r.parse::<usize>(), t.parse::<u32>()),
                    None => (rest.parse::<usize>(), Ok(1)),
                };
                match (round, times) {
                    (Ok(r), Ok(t)) if t >= 1 => plan = plan.with_panic_at_round_times(r, t),
                    _ => {
                        return Err(format!(
                        "bad fault directive {directive:?}: want panic@ROUND or panic@ROUND*TIMES"
                    ))
                    }
                }
            } else if let Some(rest) = directive.strip_prefix("io@") {
                let nth: u64 = rest
                    .parse()
                    .map_err(|_| format!("bad fault directive {directive:?}: want io@N"))?;
                plan = plan.with_io_fault(nth);
            } else if let Some(rest) = directive.strip_prefix("delay:") {
                let (site, micros) = rest.split_once('=').ok_or_else(|| {
                    format!("bad fault directive {directive:?}: want delay:SITE=MICROS")
                })?;
                let micros: u64 = micros.parse().map_err(|_| {
                    format!("bad fault directive {directive:?}: MICROS must be a number")
                })?;
                plan = plan.with_delay(site, Duration::from_micros(micros));
            } else {
                return Err(format!(
                    "unknown fault directive {directive:?} (want panic@R[*N], io@N or delay:SITE=MICROS)"
                ));
            }
        }
        Ok(plan)
    }
}

struct HandleInner {
    /// Remaining panics per round; consumed as they fire, so a later
    /// attempt of a once-armed round succeeds.
    panic_rounds: Mutex<BTreeMap<usize, u32>>,
    io_ops: BTreeSet<u64>,
    io_counter: AtomicU64,
    delays: BTreeMap<String, Duration>,
    panics_fired: AtomicUsize,
    io_faults_fired: AtomicUsize,
}

/// The cheap, cloneable handle instrumented code probes. A disabled handle
/// (the default, [`FaultHandle::off`]) reduces every probe to one branch on
/// an `Option`, so production paths pay nothing when chaos is off. Clones
/// share fault state: a fault consumed through one clone is consumed for all.
#[derive(Clone, Default)]
pub struct FaultHandle {
    inner: Option<Arc<HandleInner>>,
}

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FaultHandle(off)"),
            Some(_) => write!(f, "FaultHandle(armed)"),
        }
    }
}

impl FaultHandle {
    /// A disabled handle: every probe is a no-op branch.
    pub fn off() -> Self {
        FaultHandle::default()
    }

    /// Activates `plan`. An empty plan yields a disabled handle.
    pub fn new(plan: FaultPlan) -> Self {
        if plan.is_empty() {
            return FaultHandle::off();
        }
        FaultHandle {
            inner: Some(Arc::new(HandleInner {
                panic_rounds: Mutex::new(plan.panic_rounds),
                io_ops: plan.io_ops,
                io_counter: AtomicU64::new(0),
                delays: plan.delays,
                panics_fired: AtomicUsize::new(0),
                io_faults_fired: AtomicUsize::new(0),
            })),
        }
    }

    /// Builds a handle from the `TIE_FAULTS` environment variable: disabled
    /// when unset or empty, `Err` (one line, for CLI reporting) when set but
    /// malformed. Intended for binaries only — libraries take handles.
    pub fn from_env() -> Result<FaultHandle, String> {
        match std::env::var(FAULTS_ENV_VAR) {
            Ok(spec) if !spec.trim().is_empty() => Ok(FaultHandle::new(FaultPlan::parse(&spec)?)),
            _ => Ok(FaultHandle::off()),
        }
    }

    /// Whether any fault is armed (counters may still read >0 after all
    /// faults fired).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Panics iff a panic is armed for `round`, consuming one charge. The
    /// payload starts with [`INJECTED_PANIC_PREFIX`].
    pub fn maybe_panic(&self, round: usize) {
        let Some(inner) = &self.inner else { return };
        let fire = {
            let mut rounds = match inner.panic_rounds.lock() {
                Ok(guard) => guard,
                // A previous injected panic may have poisoned the lock —
                // the map itself is always in a consistent state.
                Err(poisoned) => poisoned.into_inner(),
            };
            match rounds.get_mut(&round) {
                Some(left) if *left > 0 => {
                    *left -= 1;
                    true
                }
                _ => false,
            }
        };
        if fire {
            inner.panics_fired.fetch_add(1, Ordering::Relaxed);
            // tie-lint: allow(no-panic-paths) — this panic IS the injected fault; callers opt in via TIE_FAULTS
            panic!("{INJECTED_PANIC_PREFIX} panic at round {round}");
        }
    }

    /// Counts one reader operation and returns an injected error iff this
    /// operation's (1-based) index is armed. `op` names the operation for
    /// the error message.
    pub fn io_fault(&self, op: &str) -> Option<std::io::Error> {
        let inner = self.inner.as_ref()?;
        self.delay("io");
        let nth = inner.io_counter.fetch_add(1, Ordering::Relaxed) + 1;
        if inner.io_ops.contains(&nth) {
            inner.io_faults_fired.fetch_add(1, Ordering::Relaxed);
            Some(std::io::Error::other(format!(
                "{INJECTED_PANIC_PREFIX} IO error on operation #{nth} ({op})"
            )))
        } else {
            None
        }
    }

    /// Sleeps for the delay armed at `site`, if any.
    pub fn delay(&self, site: &str) {
        let Some(inner) = &self.inner else { return };
        if let Some(d) = inner.delays.get(site) {
            std::thread::sleep(*d);
        }
    }

    /// Number of injected panics that actually fired.
    pub fn panics_fired(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.panics_fired.load(Ordering::Relaxed))
    }

    /// Number of injected IO errors that actually fired.
    pub fn io_faults_fired(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.io_faults_fired.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_vocabulary_is_sorted_and_distinct() {
        let mut sorted = SITES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), SITES.len());
        assert!(SITES.contains(&"io"));
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = FaultHandle::off();
        assert!(!h.is_active());
        h.maybe_panic(0);
        assert!(h.io_fault("read").is_none());
        h.delay("round");
        assert_eq!(h.panics_fired(), 0);
        assert_eq!(format!("{h:?}"), "FaultHandle(off)");
    }

    #[test]
    fn empty_plan_yields_disabled_handle() {
        assert!(!FaultHandle::new(FaultPlan::new()).is_active());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn panic_fires_once_and_is_consumed() {
        let h = FaultHandle::new(FaultPlan::new().with_panic_at_round(3));
        h.maybe_panic(2); // not armed
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.maybe_panic(3)));
        assert!(r.is_err());
        assert_eq!(h.panics_fired(), 1);
        // Consumed: a later attempt of round 3 succeeds.
        h.maybe_panic(3);
        assert_eq!(h.panics_fired(), 1);
    }

    #[test]
    fn persistent_panic_fires_repeatedly() {
        let h = FaultHandle::new(FaultPlan::new().with_panic_at_round_times(1, 2));
        for _ in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.maybe_panic(1)));
            assert!(r.is_err());
        }
        h.maybe_panic(1); // third attempt is clean
        assert_eq!(h.panics_fired(), 2);
    }

    #[test]
    fn clones_share_consumption() {
        let h = FaultHandle::new(FaultPlan::new().with_panic_at_round(0));
        let clone = h.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| clone.maybe_panic(0)));
        assert!(r.is_err());
        h.maybe_panic(0); // consumed through the clone
        assert_eq!(h.panics_fired(), 1);
    }

    #[test]
    fn io_fault_counts_operations() {
        let h = FaultHandle::new(FaultPlan::new().with_io_fault(2));
        assert!(h.io_fault("read_metis").is_none());
        let err = h.io_fault("read_metis").expect("second op must fail");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(h.io_fault("read_metis").is_none());
        assert_eq!(h.io_faults_fired(), 1);
    }

    #[test]
    fn parse_grammar_roundtrip() {
        let plan = FaultPlan::parse("panic@3, panic@7*2, io@1, delay:round=250").unwrap();
        assert_eq!(plan.panic_rounds.get(&3), Some(&1));
        assert_eq!(plan.panic_rounds.get(&7), Some(&2));
        assert!(plan.io_ops.contains(&1));
        assert_eq!(plan.delays.get("round"), Some(&Duration::from_micros(250)));
    }

    #[test]
    fn parse_rejects_malformed_directives() {
        for bad in [
            "panic@",
            "panic@x",
            "panic@3*0",
            "io@",
            "io@x",
            "delay:round",
            "delay:round=x",
            "explode@4",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains("directive"), "{bad}: {err}");
        }
    }

    #[test]
    fn delay_actually_sleeps() {
        let h = FaultHandle::new(FaultPlan::new().with_delay("round", Duration::from_millis(5)));
        let t = std::time::Instant::now();
        h.delay("round");
        assert!(t.elapsed() >= Duration::from_millis(5));
        let t = std::time::Instant::now();
        h.delay("other-site");
        assert!(t.elapsed() < Duration::from_millis(5));
    }
}
