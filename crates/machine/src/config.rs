//! Machine cost model.
//!
//! The paper evaluates on a 32-processor Intel iPSC/860 — a
//! distributed-memory machine with high per-message software overhead and
//! modest link bandwidth, which is exactly why redundant-message
//! elimination and aggregation matter (§6, §7). The simulator charges
//! `α + β·bytes` per message plus a per-flop compute cost.

/// How a multicast (one payload, many receivers) is charged to the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MulticastModel {
    /// One send per receiver (no multicast support).
    Linear,
    /// A binomial software tree: `ceil(log2(n + 1))` sequential message
    /// times on the critical path.
    Log,
    /// Hardware multicast: one message time regardless of fan-out.
    Hardware,
}

/// Cost parameters of the simulated machine. Times are in seconds; the
/// machine rounds each action's duration once to whole nanoseconds (a
/// compute block's `flops · flop_time`, a send's busy time, a wire time, a
/// receive's `alpha_recv`), so constants in whole nanoseconds are charged
/// exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Per-message send software overhead (seconds).
    pub alpha_send: f64,
    /// Per-message receive software overhead (seconds).
    pub alpha_recv: f64,
    /// Per-byte transfer time (seconds/byte).
    pub beta: f64,
    /// Time per floating-point operation (seconds).
    pub flop_time: f64,
    /// Bytes per array element (4 = single precision).
    pub word_bytes: u64,
    /// Multicast cost model.
    pub multicast: MulticastModel,
}

impl MachineConfig {
    /// Cost parameters calibrated to the Intel iPSC/860 of the paper's
    /// evaluation: ~95 µs message startup, ~2.8 MB/s sustained link
    /// bandwidth, and ~7 MFLOPS achieved per node on compiled
    /// single-precision code.
    pub fn ipsc860() -> Self {
        MachineConfig {
            alpha_send: 95e-6,
            alpha_recv: 15e-6,
            beta: 0.36e-6,
            flop_time: 0.145e-6,
            word_bytes: 4,
            multicast: MulticastModel::Log,
        }
    }

    /// An idealized machine with free communication — useful to isolate
    /// load balance from communication cost in ablations.
    pub fn zero_comm() -> Self {
        MachineConfig {
            alpha_send: 0.0,
            alpha_recv: 0.0,
            beta: 0.0,
            flop_time: 0.145e-6,
            word_bytes: 4,
            multicast: MulticastModel::Hardware,
        }
    }

    /// The wire time of an `n`-byte message (excluding software overhead).
    pub fn wire_time(&self, bytes: u64) -> f64 {
        self.beta * bytes as f64
    }

    /// The sender-side busy time for one logical send with `fanout`
    /// physical receivers.
    pub fn send_busy_time(&self, bytes: u64, fanout: usize) -> f64 {
        let one = self.alpha_send + self.wire_time(bytes);
        match self.multicast {
            MulticastModel::Linear => one * fanout as f64,
            MulticastModel::Log => one * ((fanout + 1) as f64).log2().ceil(),
            MulticastModel::Hardware => one,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipsc_defaults_are_latency_dominated() {
        let c = MachineConfig::ipsc860();
        // A one-word message costs far more in startup than in wire time —
        // the regime where aggregation pays off.
        assert!(c.alpha_send > 50.0 * c.wire_time(c.word_bytes));
    }

    #[test]
    fn multicast_models_order() {
        let mut c = MachineConfig::ipsc860();
        let bytes = 1024;
        c.multicast = MulticastModel::Linear;
        let lin = c.send_busy_time(bytes, 31);
        c.multicast = MulticastModel::Log;
        let log = c.send_busy_time(bytes, 31);
        c.multicast = MulticastModel::Hardware;
        let hw = c.send_busy_time(bytes, 31);
        assert!(hw < log && log < lin);
        // Single receiver: linear == hardware, log == hardware.
        c.multicast = MulticastModel::Linear;
        let one_lin = c.send_busy_time(bytes, 1);
        c.multicast = MulticastModel::Hardware;
        let one_hw = c.send_busy_time(bytes, 1);
        assert_eq!(one_lin, one_hw);
    }
}
