//! The collecting subscriber and its deterministic snapshots.

use crate::json;
use crate::subscriber::Subscriber;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`.
const N_BUCKETS: usize = 65;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<&'static str, SpanStat>,
}

#[derive(Clone)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl Histogram {
    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
    }
}

#[derive(Default, Clone, Copy)]
struct SpanStat {
    count: u64,
    total_nanos: u64,
}

/// The in-memory collecting [`Subscriber`]: thread-safe counters,
/// histograms and span totals.
///
/// Everything except wall-clock span durations is a pure function of the
/// instrumented computation, so deterministic workloads produce identical
/// [`MetricsSnapshot`]s run to run.
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A recorder collecting counters, histograms and span totals.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A sorted, self-consistent copy of everything collected so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("recorder poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&k, h)| {
                    (
                        k.to_string(),
                        HistogramSnapshot {
                            count: h.count,
                            sum: h.sum,
                            min: if h.count == 0 { 0 } else { h.min },
                            max: h.max,
                            // Only non-empty buckets, as (bucket upper
                            // bound, count) pairs.
                            buckets: h
                                .buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, &c)| c > 0)
                                .map(|(i, &c)| {
                                    let upper = if i == 0 {
                                        0
                                    } else {
                                        1u64.checked_shl(i as u32).map_or(u64::MAX, |b| b - 1)
                                    };
                                    (upper, c)
                                })
                                .collect(),
                        },
                    )
                })
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(&k, s)| {
                    (
                        k.to_string(),
                        SpanSnapshot {
                            count: s.count,
                            total_nanos: s.total_nanos,
                        },
                    )
                })
                .collect(),
        }
    }
}

impl Subscriber for Recorder {
    fn counter(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        *inner.counters.entry(name).or_default() += delta;
    }

    fn histogram(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        inner.histograms.entry(name).or_default().record(value);
    }

    fn span_close(&self, name: &'static str, nanos: u64) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let stat = inner.spans.entry(name).or_default();
        stat.count += 1;
        stat.total_nanos = stat.total_nanos.saturating_add(nanos);
    }
}

/// Aggregate of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty log₂ buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Aggregate of one span name at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Closures observed.
    pub count: u64,
    /// Total wall-clock nanoseconds (saturating). Wall time is
    /// measurement, not behaviour: it is excluded from determinism
    /// comparisons and from [`MetricsSnapshot::to_json`].
    pub total_nanos: u64,
}

/// A sorted copy of a [`Recorder`]'s state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span aggregates by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl MetricsSnapshot {
    /// The named counter's total, or 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Deterministic JSON rendering: keys sorted, wall-clock span
    /// durations replaced by closure counts only, so two runs of the same
    /// deterministic workload serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json::push_key(&mut out, "counters");
        out.push('{');
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, k);
            out.push_str(&v.to_string());
        }
        out.push('}');
        out.push(',');
        json::push_key(&mut out, "histograms");
        out.push('{');
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, k);
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":{}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                json::array_of(h.buckets.iter().map(|(u, c)| format!("[{u},{c}]")))
            ));
        }
        out.push('}');
        out.push(',');
        json::push_key(&mut out, "spans");
        out.push('{');
        for (i, (k, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, k);
            out.push_str(&format!("{{\"count\":{}}}", s.count));
        }
        out.push('}');
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let rec = Recorder::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            rec.histogram("h", v);
        }
        let snap = rec.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // 0 → [0,0]; 1 → (0,1]; 2,3 → (1,3]; 4 → (3,7]; 1000 → (511,1023].
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]);
    }

    #[test]
    fn snapshot_json_omits_wall_time_unless_asked() {
        let rec = Recorder::new();
        rec.span_close("s", 123);
        let snap = rec.snapshot();
        assert_eq!(snap.spans["s"].total_nanos, 123);
        assert!(!snap.to_json().contains("total_nanos"));
        assert!(snap.to_json().contains("\"s\":{\"count\":1}"));
    }
}
