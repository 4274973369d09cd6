//! The benchmark's own arithmetic: percentiles, the tail rule, medians and
//! per-class request accounting.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Percentiles the tail rule may pick, highest first, in tenths of a
/// percent (999 = p99.9).
const LADDER_TENTHS: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank index of percentile `tenths / 10` in `n` sorted samples.
fn rank(n: usize, tenths: u64) -> usize {
    let r = (n as u64 * tenths).div_ceil(1000) as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile of an ascending sample (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), (p * 10.0).round() as u64)]
}

/// The tail rule: the highest ladder percentile at or below `cap` that
/// leaves at least [`TAIL_BEYOND`] of `n` samples beyond it. Falls back to
/// p50 when even that leaves too few (the caller prints the sample count,
/// so a thin tail is visible).
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    let cap_tenths = (cap * 10.0).round() as u64;
    LADDER_TENTHS
        .iter()
        .copied()
        .filter(|&t| t <= cap_tenths)
        .find(|&t| n > 0 && n - 1 - rank(n, t) >= TAIL_BEYOND)
        .unwrap_or(500) as f64
        / 10.0
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Width of an [`Arrivals`] bin.
const ARRIVAL_BIN: Duration = Duration::from_millis(10);

/// Reply counts of a loop in 10 ms bins from its start, and the time of its
/// last reply: memory grows with the loop's length, not its reply rate.
#[derive(Debug, Default, Clone)]
pub struct Arrivals {
    bins: Vec<u64>,
    last: Duration,
}

impl Arrivals {
    /// Counts a reply `at` after the start of the loop.
    pub fn record(&mut self, at: Duration) {
        let bin = (at.as_nanos() / ARRIVAL_BIN.as_nanos()) as usize;
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
        self.last = self.last.max(at);
    }

    /// Reply rates over `slices` equal parts of the time the loop ran,
    /// from its start to its last reply; a bin counts in the part where it
    /// starts. A loop that runs out of frames before its window ends ran
    /// for less time, and its rates are still the rates it ran at.
    pub fn slice_rates(&self, slices: usize) -> Vec<f64> {
        let ran = self.last.as_secs_f64();
        if ran <= 0.0 {
            return vec![0.0; slices];
        }
        let part = ran / slices as f64;
        let mut counts = vec![0u64; slices];
        for (i, &n) in self.bins.iter().enumerate() {
            let start = i as f64 * ARRIVAL_BIN.as_secs_f64();
            counts[((start / part) as usize).min(slices - 1)] += n;
        }
        counts.iter().map(|&n| n as f64 / part).collect()
    }
}

/// A uniform sample of at most `cap` values of a stream (Algorithm R),
/// seeded: every value while the stream is shorter than `cap`.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<f64>,
    rng: ChaCha8Rng,
}

impl Default for Reservoir {
    fn default() -> Reservoir {
        Reservoir::new(0, 0)
    }
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            samples: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            let slot = self.rng.random_range(0..self.seen) as usize;
            if slot < self.cap {
                self.samples[slot] = value;
            }
        }
    }

    /// How many values the stream has had.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A latency summary: p50 and the tail at the percentile the tail rule
/// picked, with the sample count it was picked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64], cap: f64) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len(), cap);
        Summary {
            count: v.len(),
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: percentile(&v, tail_pct),
        }
    }
}

/// Outcome counts for one request class.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ClassCount {
    pub sent: u64,
    pub succeeded: u64,
    /// Replies that were structured errors, by label (`429`, `503`,
    /// `504`, `key-miss`, `base-miss`, or the bare code).
    pub errors: BTreeMap<String, u64>,
    /// Replies that arrived but failed an output check.
    pub mismatched: u64,
}

impl ClassCount {
    pub fn failed(&self) -> u64 {
        self.errors.values().sum::<u64>() + self.mismatched
    }
}

/// Per-class accounting for one run. Every reply lands in exactly one of
/// succeeded, an error label or mismatched; post-run checks (payload
/// verification, the stats invariant) are classes of their own.
#[derive(Debug, Default, Clone)]
pub struct Accounting {
    pub classes: BTreeMap<&'static str, ClassCount>,
}

impl Accounting {
    fn class(&mut self, class: &'static str) -> &mut ClassCount {
        self.classes.entry(class).or_default()
    }

    pub fn succeeded(&mut self, class: &'static str) {
        let c = self.class(class);
        c.sent += 1;
        c.succeeded += 1;
    }

    pub fn error(&mut self, class: &'static str, label: String) {
        let c = self.class(class);
        c.sent += 1;
        *c.errors.entry(label).or_default() += 1;
    }

    pub fn mismatched(&mut self, class: &'static str) {
        let c = self.class(class);
        c.sent += 1;
        c.mismatched += 1;
    }

    /// Records a post-run check as one attempt of class `class`.
    pub fn check(&mut self, class: &'static str, passed: bool) {
        if passed {
            self.succeeded(class);
        } else {
            self.mismatched(class);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.classes.values().map(|c| c.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.values().map(ClassCount::failed).sum()
    }

    /// Failed plus mismatched over attempted (0 when nothing ran).
    pub fn failed_ratio(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }

    pub fn sent(&self, class: &str) -> u64 {
        self.classes.get(class).map_or(0, |c| c.sent)
    }

    pub fn errors_labelled(&self, class: &str, label: &str) -> u64 {
        self.classes
            .get(class)
            .and_then(|c| c.errors.get(label))
            .copied()
            .unwrap_or(0)
    }
}

/// The label an error reply counts under.
pub fn error_label(code: u16, message: &str) -> String {
    if code == 404 && message.starts_with("key-miss") {
        "key-miss".into()
    } else if code == 404 && message.starts_with("base-miss") {
        "base-miss".into()
    } else {
        code.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_leaves_at_least_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th value, ten beyond it; p99.9
        // would leave one, so the rule stops at p99.
        assert_eq!(tail_percentile(1000, 99.9), 99.0);
        let s = Summary::of(&ascending(1000), 99.9);
        assert_eq!(s.tail, 990.0);
        // 10 000 samples reach p99.9 (the 9990th value, ten beyond).
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        assert_eq!(Summary::of(&ascending(10_000), 99.9).tail, 9990.0);
        // One sample short of the p99 threshold drops to p95.
        assert_eq!(tail_percentile(999, 99.9), 95.0);
        // The cap bounds the ladder from above.
        assert_eq!(tail_percentile(1_000_000, 99.0), 99.0);
        // Too few samples for any rung: p50, and the count says why.
        assert_eq!(tail_percentile(12, 99.0), 50.0);
        for n in [20, 40, 100, 200, 1000, 5000, 10_000, 123_457] {
            let p = tail_percentile(n, 99.9);
            let beyond = n - 1 - rank(n, (p * 10.0) as u64);
            assert!(beyond >= TAIL_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let v = ascending(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    fn arrivals(times: impl Iterator<Item = Duration>) -> Arrivals {
        let mut a = Arrivals::default();
        times.for_each(|t| a.record(t));
        a
    }

    #[test]
    fn slice_rates_cover_the_time_the_loop_ran() {
        // 100 replies a second for 8 s of a 20 s window, then the frames
        // ran out: every fifth of the 8 s still reads 100/s. (A bin on a
        // boundary may land on either side of it.)
        let early = arrivals((1..=800).map(|i| Duration::from_millis(10 * i)));
        for rate in early.slice_rates(5) {
            assert!((rate - 100.0).abs() < 1.0, "{rate}");
        }
        // A stall in one fifth shows in that fifth only.
        let stalled = arrivals(
            (1..=1000)
                .filter(|i| !(200..400).contains(i))
                .map(|i| Duration::from_millis(10 * i)),
        );
        let rates = stalled.slice_rates(5);
        assert_eq!(rates[1], 0.0);
        assert!((median(&rates) - 100.0).abs() < 1.0, "{rates:?}");
        assert_eq!(Arrivals::default().slice_rates(5), vec![0.0; 5]);
    }

    #[test]
    fn reservoir_keeps_everything_under_its_cap_and_a_uniform_sample_over_it() {
        let mut small = Reservoir::new(100, 1);
        (0..50).for_each(|i| small.push(i as f64));
        assert_eq!(
            small.samples(),
            (0..50).map(|i| i as f64).collect::<Vec<_>>()
        );
        let mut big = Reservoir::new(10_000, 1);
        (0..1_000_000).for_each(|i| big.push(i as f64));
        assert_eq!((big.seen(), big.samples().len()), (1_000_000, 10_000));
        // The sample's median is the stream's, within 2%.
        assert!((median(big.samples()) / 500_000.0 - 1.0).abs() < 0.02);
    }

    #[test]
    fn failed_ratio_counts_errors_and_mismatches_over_attempts() {
        let mut a = Accounting::default();
        for _ in 0..96 {
            a.succeeded("key");
        }
        a.error(
            "key",
            error_label(404, "key-miss: schedule 00 is not cached"),
        );
        a.error("full", error_label(429, "work queue full"));
        a.mismatched("full");
        a.check("stats-invariant", false);
        assert_eq!(a.attempted(), 100);
        assert_eq!(a.failed(), 4);
        assert!((a.failed_ratio() - 0.04).abs() < 1e-12);
        assert_eq!(a.errors_labelled("key", "key-miss"), 1);
        assert_eq!(a.errors_labelled("full", "429"), 1);
        assert_eq!(error_label(404, "base-miss: scenario"), "base-miss");
        assert_eq!(error_label(404, "unknown algorithm"), "404");
        assert_eq!(Accounting::default().failed_ratio(), 0.0);
    }
}
