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

/// The communication-generation strategy and the five optimization toggles
/// of paper §6, nothing else: what the §6 ablations vary. Every toggle
/// defaults to on. The polyhedral engine's feasibility budget is not an
/// option but a constant ([`dmc_polyhedra::stats::FEASIBILITY_BUDGET`]).
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
}

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
    }
}
