//! Simulation statistics: per-processor time breakdowns, the P×P traffic
//! matrix, and exact log2-bucket size/latency histograms.

use crate::hist::Log2Hist;

/// Per-processor time breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcStats {
    /// Seconds spent computing.
    pub compute: f64,
    /// Seconds spent in message software overhead (send + receive).
    pub comm: f64,
    /// Seconds spent blocked waiting for messages.
    pub idle: f64,
    /// Local completion time.
    pub finish: f64,
}

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
    /// Per-processor breakdown.
    pub per_proc: Vec<ProcStats>,
    /// Row-major P×P matrix: words delivered from processor `src` to
    /// processor `dst` (`src * P + dst`). Its total equals [`words`].
    ///
    /// [`words`]: SimStats::words
    pub traffic_words: Vec<u64>,
    /// Row-major P×P matrix: point-to-point transmissions per link. Its
    /// total equals [`transmissions`](SimStats::transmissions).
    pub traffic_transmissions: Vec<u64>,
    /// Payload size (words) per logical message; exact log2 buckets. Its
    /// count equals [`messages`](SimStats::messages).
    pub msg_words_hist: Log2Hist,
    /// Per-transmission latency in rounded microseconds, send start to
    /// receive completion. Its count equals
    /// [`transmissions`](SimStats::transmissions).
    pub latency_us_hist: Log2Hist,
}

impl SimStats {
    /// Empty statistics for `p` processors.
    pub fn new(p: usize) -> Self {
        SimStats {
            per_proc: vec![ProcStats::default(); p],
            traffic_words: vec![0; p * p],
            traffic_transmissions: vec![0; p * p],
            ..SimStats::default()
        }
    }

    /// Number of simulated processors.
    pub fn nproc(&self) -> usize {
        self.per_proc.len()
    }

    /// Words delivered over the `src -> dst` link.
    pub fn link_words(&self, src: usize, dst: usize) -> u64 {
        self.traffic_words[src * self.nproc() + dst]
    }

    /// Total words over all links (equals `self.words` after a run).
    pub fn traffic_total(&self) -> u64 {
        self.traffic_words.iter().sum()
    }

    /// The busiest links: `(src, dst, words, transmissions)` sorted by
    /// words descending (ties by rank pair), zero-traffic links omitted.
    pub fn top_links(&self, k: usize) -> Vec<(usize, usize, u64, u64)> {
        let p = self.nproc();
        let mut links: Vec<(usize, usize, u64, u64)> = (0..p * p)
            .filter(|i| self.traffic_words[*i] > 0)
            .map(|i| {
                (
                    i / p,
                    i % p,
                    self.traffic_words[i],
                    self.traffic_transmissions[i],
                )
            })
            .collect();
        links.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        links.truncate(k);
        links
    }

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

    /// Average processor efficiency: compute time / finish time.
    pub fn efficiency(&self) -> f64 {
        if self.per_proc.is_empty() || self.time <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.per_proc.iter().map(|p| p.compute).sum();
        busy / (self.time * self.per_proc.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = SimStats::new(2);
        s.time = 2.0;
        s.flops = 8e6;
        s.per_proc[0].compute = 2.0;
        s.per_proc[1].compute = 1.0;
        assert_eq!(s.mflops(), 4.0);
        assert_eq!(s.speedup_vs(6.0), 3.0);
        assert!((s.efficiency() - 0.75).abs() < 1e-12);
        assert_eq!(SimStats::new(1).mflops(), 0.0);
    }

    #[test]
    fn traffic_helpers() {
        let mut s = SimStats::new(2);
        s.traffic_words = vec![0, 5, 9, 0];
        s.traffic_transmissions = vec![0, 1, 2, 0];
        assert_eq!(s.link_words(0, 1), 5);
        assert_eq!(s.traffic_total(), 14);
        assert_eq!(s.top_links(10), vec![(1, 0, 9, 2), (0, 1, 5, 1)]);
        assert_eq!(s.top_links(1).len(), 1);
    }
}
