//! The fixed phase vocabulary of the TIMER pipeline and a zero-alloc
//! accumulator for per-phase wall-clock breakdowns.

/// A pipeline phase. The set is closed on purpose: a fixed vocabulary keeps
/// the accumulator allocation-free and the JSONL schema stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// One whole hierarchy construction (contains `Sweep` and `Contract`).
    HierarchyBuild,
    /// One label-swap sweep over a hierarchy level.
    Sweep,
    /// One contraction of a hierarchy level into the next coarser one.
    Contract,
    /// Assembling fine-level labels from a finished hierarchy (a push-down
    /// from the coarsest level) and undoing the digit permutation.
    Assemble,
    /// The incidence-limited `(ΔCoco, ΔDiv)` scan pricing a candidate.
    DeltaScan,
    /// Checking one round's invariants and committing its labels.
    Commit,
    /// One `mapd` daemon request served end to end (parse, admission,
    /// enhancement, response serialization).
    Serve,
    /// Per-topology cache context construction (partial-cube recognition on
    /// a cache miss; hits never enter this phase).
    Cache,
}

impl Phase {
    /// Number of phases (size of [`PhaseTimes`]' backing array).
    pub const COUNT: usize = 8;

    /// All phases, in reporting order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::HierarchyBuild,
        Phase::Sweep,
        Phase::Contract,
        Phase::Assemble,
        Phase::DeltaScan,
        Phase::Commit,
        Phase::Serve,
        Phase::Cache,
    ];

    /// Stable snake_case name used in JSONL events and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::HierarchyBuild => "hierarchy_build",
            Phase::Sweep => "sweep",
            Phase::Contract => "contract",
            Phase::Assemble => "assemble",
            Phase::DeltaScan => "delta_scan",
            Phase::Commit => "commit",
            Phase::Serve => "serve",
            Phase::Cache => "cache",
        }
    }

    /// Inverse of [`Phase::name`]: resolves a stable snake_case name back to
    /// the phase, `None` for anything outside the fixed vocabulary. String
    /// call sites of this function are policed by `tie-lint`'s
    /// `registered-sites` rule.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        match self {
            Phase::HierarchyBuild => 0,
            Phase::Sweep => 1,
            Phase::Contract => 2,
            Phase::Assemble => 3,
            Phase::DeltaScan => 4,
            Phase::Commit => 5,
            Phase::Serve => 6,
            Phase::Cache => 7,
        }
    }
}

/// Accumulated wall-clock per phase, in microseconds. `HierarchyBuild` spans
/// contain the `Sweep` and `Contract` time of their levels, so the entries
/// are not disjoint — readers summing phases must skip the container phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    us: [u64; Phase::COUNT],
}

impl PhaseTimes {
    /// Adds `micros` to `phase`'s total.
    pub fn add(&mut self, phase: Phase, micros: u64) {
        self.us[phase.index()] += micros;
    }

    /// Accumulated microseconds of `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.us[phase.index()]
    }

    /// Folds another breakdown into this one (used to merge per-round
    /// breakdowns into a run total).
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (slot, v) in self.us.iter_mut().zip(other.us) {
            *slot += v;
        }
    }

    /// `(phase, micros)` pairs in reporting order, including zero entries.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// True if no time has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.us.iter().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Phase::COUNT);
        assert_eq!(Phase::HierarchyBuild.name(), "hierarchy_build");
        assert_eq!(Phase::DeltaScan.name(), "delta_scan");
    }

    #[test]
    fn from_name_inverts_name() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("warp_drive"), None);
    }

    #[test]
    fn accumulate_and_merge() {
        let mut a = PhaseTimes::default();
        assert!(a.is_empty());
        a.add(Phase::Sweep, 10);
        a.add(Phase::Sweep, 5);
        a.add(Phase::Commit, 1);
        let mut b = PhaseTimes::default();
        b.add(Phase::Sweep, 100);
        b.add(Phase::DeltaScan, 7);
        a.merge(&b);
        assert_eq!(a.get(Phase::Sweep), 115);
        assert_eq!(a.get(Phase::Commit), 1);
        assert_eq!(a.get(Phase::DeltaScan), 7);
        assert_eq!(a.get(Phase::Assemble), 0);
        assert!(!a.is_empty());
        assert_eq!(a.iter().count(), Phase::COUNT);
    }
}
