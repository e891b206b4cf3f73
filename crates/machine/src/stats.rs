//! Simulation statistics: the totals of one run.
//!
//! The run's books — where each processor's time went, per link, per
//! message, per transmission — are kept once, in integer nanoseconds, by
//! [`crate::critpath::analyze`]; [`CritAnalysis::verify`] checks them
//! against these totals.
//!
//! [`CritAnalysis::verify`]: crate::CritAnalysis::verify

/// Whole-run statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Wall-clock time of the run (max processor finish time), seconds.
    pub time: f64,
    /// Total floating-point operations executed.
    pub flops: f64,
    /// Logical messages sent (a multicast counts once).
    pub messages: u64,
    /// Point-to-point transmissions (a multicast counts per receiver).
    pub transmissions: u64,
    /// Payload words delivered (per receiver).
    pub words: u64,
}

impl SimStats {
    /// Achieved MFLOPS.
    pub fn mflops(&self) -> f64 {
        if self.time <= 0.0 {
            0.0
        } else {
            self.flops / self.time / 1e6
        }
    }

    /// Speedup relative to a run that took `t1` seconds.
    pub fn speedup_vs(&self, t1: f64) -> f64 {
        if self.time <= 0.0 {
            0.0
        } else {
            t1 / self.time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            time: 2.0,
            flops: 8e6,
            ..SimStats::default()
        };
        assert_eq!(s.mflops(), 4.0);
        assert_eq!(s.speedup_vs(6.0), 3.0);
        assert_eq!(SimStats::default().mflops(), 0.0);
        assert_eq!(SimStats::default().speedup_vs(1.0), 0.0);
    }
}
