//! Compiler options: each §6 optimization can be toggled for ablations.

/// Which communication-generation strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's value-centric approach: communication derived from Last
    /// Write Trees and computation decompositions (Theorems 3/4).
    ValueCentric,
    /// The conventional location-centric approach (§2, Theorem 2):
    /// communication derived from data decompositions; every non-local
    /// read fetches from the owner.
    LocationCentric,
}

/// Optimization toggles (paper §6). Everything defaults to on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// Communication-generation strategy.
    pub strategy: Strategy,
    /// §6.1.1 — eliminate redundant transfers due to self reuse (each
    /// value reaches a processor once per context); under the
    /// value-centric strategy, also across contexts (one transfer per
    /// value and receiver across the whole tree).
    pub self_reuse: bool,
    /// §6.1.3 — drop transfers whose receiver already owns a copy under
    /// the initial data decomposition.
    pub already_local: bool,
    /// §6.1.3 — keep one sender when the initial decomposition replicates
    /// data.
    pub unique_sender: bool,
    /// §6.2 — aggregate messages at the dependence level. Off = one
    /// message per element.
    pub aggregate: bool,
    /// §6.2.1 — merge identical payloads to different receivers into
    /// multicasts.
    pub multicast: bool,
    /// Branch-and-bound budget for integer-feasibility queries in the
    /// polyhedral engine. Exhausting it yields a conservative `Unknown`
    /// answer (counted in [`dmc_polyhedra::PolyStats`]).
    pub feasibility_budget: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            strategy: Strategy::ValueCentric,
            self_reuse: true,
            already_local: true,
            unique_sender: true,
            aggregate: true,
            multicast: true,
            feasibility_budget: dmc_polyhedra::stats::DEFAULT_FEASIBILITY_BUDGET,
        }
    }
}

impl Options {
    /// Everything on (the paper's full optimizer).
    pub fn full() -> Self {
        Options::default()
    }

    /// All §6 optimizations off: correct but naive (one message per
    /// element, no redundancy elimination).
    pub fn naive() -> Self {
        Options {
            self_reuse: false,
            already_local: false,
            unique_sender: false,
            aggregate: false,
            multicast: false,
            ..Options::default()
        }
    }

    /// The location-centric baseline of §2.
    pub fn location_centric() -> Self {
        Options {
            strategy: Strategy::LocationCentric,
            ..Options::default()
        }
    }

    /// Installs the feasibility budget as a *thread-local* tuning of the
    /// polyhedral engine for the returned guard's lifetime. This is how
    /// [`compile`] and [`build_schedule`] scope it: nothing process-wide
    /// changes, so compilations that overlap in one process under
    /// different options cannot observe each other's budget.
    ///
    /// [`compile`]: crate::compile
    /// [`build_schedule`]: crate::build_schedule
    #[must_use = "the tuning is uninstalled when the guard drops"]
    pub fn push_tuning_scoped(&self) -> ScopedTuning {
        dmc_polyhedra::stats::push_thread_tuning(dmc_polyhedra::stats::Tuning {
            feasibility_budget: self.feasibility_budget,
        })
    }
}

/// The thread-local engine tuning of one compile, restored when the guard
/// drops (`!Send`).
pub type ScopedTuning = dmc_polyhedra::stats::ThreadTuningGuard;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(Options::default().strategy, Strategy::ValueCentric);
        assert!(!Options::naive().aggregate);
        assert_eq!(
            Options::location_centric().strategy,
            Strategy::LocationCentric
        );
        assert_eq!(
            Options::default().feasibility_budget,
            dmc_polyhedra::stats::DEFAULT_FEASIBILITY_BUDGET
        );
    }
}
