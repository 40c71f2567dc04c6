//! Metric math, free of I/O and clocks so every rule is unit-tested.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples for which a tail is reported at all.
pub const TAIL_MIN_SAMPLES: usize = 2 * TAIL_BEYOND;

/// Median (mean of the two middle values for an even count), `None` when
/// there are no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Which percentile that order statistic is, in `(0, 100)`.
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The tail rule: the `TAIL_BEYOND + 1`-th largest sample, which is the
/// `(n - TAIL_BEYOND) / n` percentile. `None` under [`TAIL_MIN_SAMPLES`]
/// samples, where that percentile would sit at or below the median.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// A closed-open time interval in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, inclusive.
    pub start: u64,
    /// End, exclusive.
    pub end: u64,
}

impl Interval {
    /// Length in nanoseconds (zero for an inverted interval).
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of a span: its duration minus the part of it that the union
/// of its children covers. Children may overlap each other (concurrent
/// work) or stick out of the parent; only covered parent time is removed,
/// and each instant only once.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.start < c.end)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0u64;
    let mut run: Option<Interval> = None;
    for c in clipped {
        match run.as_mut() {
            Some(r) if c.start <= r.end => r.end = r.end.max(c.end),
            _ => {
                if let Some(r) = run.replace(c) {
                    covered += r.len();
                }
            }
        }
    }
    if let Some(r) = run {
        covered += r.len();
    }
    parent.len() - covered
}

/// Each link's shaped download delay in seconds:
/// `transmission_secs(frame_bytes[p], mbps[p]) × scale`, the same rule the
/// shaped transport sleeps by.
pub fn link_delays(frame_bytes: &[u64], mbps: &[f64], scale: f64) -> Vec<f64> {
    frame_bytes
        .iter()
        .zip(mbps)
        .map(|(&bytes, &rate)| fedrlnas_netsim::transmission_secs(bytes as usize, rate) * scale)
        .collect()
}

/// How many link delays the backend overlapped: their sum over the
/// backend's wall time (1 = fully serial, the link count = fully
/// overlapped). Zero when the backend took no time.
pub fn overlap_x(delays: &[f64], backend_secs: f64) -> f64 {
    if backend_secs > 0.0 {
        delays.iter().sum::<f64>() / backend_secs
    } else {
        0.0
    }
}

/// The share of the backend's wall time the slowest link alone forces:
/// near 1 the round runs at the link floor, well below 1 something else
/// (compute, a serial wait) sets the pace.
pub fn link_floor_share(delays: &[f64], backend_secs: f64) -> f64 {
    if backend_secs > 0.0 {
        delays.iter().copied().fold(0.0, f64::max) / backend_secs
    } else {
        0.0
    }
}

/// What the correctness gate saw in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundCheck {
    /// Participant updates the round should commit.
    pub expected: u64,
    /// Updates that reached aggregation in their own round.
    pub committed_on_time: u64,
    /// The round panicked, so none of its updates count.
    pub panicked: bool,
    /// No fault, reject, retransmit, eviction or non-finite metric was
    /// recorded (the workloads are fault-free, so any is a failure).
    pub clean: bool,
}

/// Updates of one round that count as failed: every update of a round that
/// panicked or broke the gate, otherwise those that were missing, late or
/// rejected.
pub fn round_failures(check: &RoundCheck) -> u64 {
    if check.panicked || !check.clean {
        check.expected
    } else {
        check.expected.saturating_sub(check.committed_on_time)
    }
}

/// Running `fail_frac` accounting over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailTally {
    /// Participant updates expected so far.
    pub attempted: u64,
    /// Of those, updates that failed.
    pub failed: u64,
}

impl FailTally {
    /// Adds one measured round.
    pub fn add_round(&mut self, check: &RoundCheck) {
        self.attempted += check.expected;
        self.failed += round_failures(check);
    }

    /// An end-of-run gate failure (invalid genotype, non-finite curve,
    /// broken span coverage) voids every update of the run.
    pub fn fail_run(&mut self) {
        self.failed = self.attempted;
    }

    /// Failed over attempted; zero before any attempt.
    pub fn frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// 64-bit FNV-1a, for run digests that must repeat bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a word in, little-endian.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_twenty_samples() {
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&nineteen), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_at_twenty_samples_is_the_median_rank() {
        // 1..=20 shuffled: the 11th largest is 10, with 10 samples above it
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v.reverse();
        let t = tail(&v).expect("20 samples give a tail");
        assert_eq!(t.value, 10.0);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.samples, 20);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_climbs_with_the_sample_count() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v).expect("200 samples");
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("1000 samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
    }

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(iv(10, 110), &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // children [20,50) and [40,70) overlap on [40,50): they cover 50ns
        assert_eq!(self_time(iv(0, 100), &[iv(20, 50), iv(40, 70)]), 50);
        // a child nested inside another removes nothing extra
        assert_eq!(self_time(iv(0, 100), &[iv(10, 90), iv(20, 30)]), 20);
        // disjoint children both count
        assert_eq!(self_time(iv(0, 100), &[iv(0, 10), iv(90, 100)]), 80);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(iv(100, 200), &[iv(50, 150), iv(190, 400)]), 40);
        assert_eq!(self_time(iv(100, 200), &[iv(0, 50), iv(300, 400)]), 100);
        assert_eq!(self_time(iv(100, 200), &[iv(0, 500)]), 0);
    }

    #[test]
    fn link_metrics_match_hand_computed_transmission_times() {
        // 125 000 B at 1 Mbps is exactly 1 s; 250 000 B at 4 Mbps is 0.5 s;
        // at scale 10 the shaped delays are 10 s and 5 s
        let delays = link_delays(&[125_000, 250_000], &[1.0, 4.0], 10.0);
        assert_eq!(delays.len(), 2);
        assert!((delays[0] - 10.0).abs() < 1e-12);
        assert!((delays[1] - 5.0).abs() < 1e-12);
        // a 12.5 s backend overlapped 15 s of link time; the slow link
        // alone took 80% of it
        assert!((overlap_x(&delays, 12.5) - 1.2).abs() < 1e-12);
        assert!((link_floor_share(&delays, 12.5) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn link_metrics_without_shaping_or_backend_time_are_zero() {
        let delays = link_delays(&[125_000], &[1.0], 0.0);
        assert_eq!(delays, vec![0.0]);
        assert_eq!(overlap_x(&delays, 1.0), 0.0);
        assert_eq!(overlap_x(&[1.0], 0.0), 0.0);
        assert_eq!(link_floor_share(&[1.0], 0.0), 0.0);
    }

    #[test]
    fn fail_accounting_counts_missing_updates_and_voided_rounds() {
        let mut tally = FailTally::default();
        assert_eq!(tally.frac(), 0.0);
        // a full-strength clean round
        tally.add_round(&RoundCheck {
            expected: 10,
            committed_on_time: 10,
            panicked: false,
            clean: true,
        });
        assert_eq!((tally.attempted, tally.failed), (10, 0));
        // two updates missing, late or rejected
        tally.add_round(&RoundCheck {
            expected: 10,
            committed_on_time: 8,
            panicked: false,
            clean: true,
        });
        assert_eq!((tally.attempted, tally.failed), (20, 2));
        // a retransmit breaks the gate even though everything committed
        tally.add_round(&RoundCheck {
            expected: 10,
            committed_on_time: 10,
            panicked: false,
            clean: false,
        });
        assert_eq!((tally.attempted, tally.failed), (30, 12));
        // a panicked round loses all of its updates
        tally.add_round(&RoundCheck {
            expected: 10,
            committed_on_time: 0,
            panicked: true,
            clean: true,
        });
        assert_eq!((tally.attempted, tally.failed), (40, 22));
        assert!((tally.frac() - 22.0 / 40.0).abs() < 1e-12);
        // an end-of-run gate failure voids the whole run
        tally.fail_run();
        assert_eq!(tally.frac(), 1.0);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.0, b.0);
    }
}
