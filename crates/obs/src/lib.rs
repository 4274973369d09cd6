//! `rfid_obs` — the workspace's tracing/metrics facade.
//!
//! Every layer of the scheduler stack (one-shot schedulers, the MCS
//! drivers, the network simulator, the serve daemon) emits spans,
//! counters and histograms through a single [`Subscriber`] trait object
//! threaded in by the caller. The design mirrors the `tracing` facade pattern but is
//! deliberately dependency-free so it can sit underneath every crate in
//! the workspace (including `rfid-netsim`, which has no `serde`):
//!
//! * **Instrumentation sites** call the [`span!`], [`counter!`] and
//!   [`histogram!`] macros with an `Option<&dyn Subscriber>`. With `None`
//!   (or a subscriber whose [`Subscriber::enabled`] is `false`) each
//!   macro reduces to a single predictable branch — the no-op path costs
//!   nothing measurable and, by the determinism contract (DESIGN.md §8),
//!   **must not** influence any scheduling decision.
//! * **Collection** happens in a [`Recorder`]: thread-safe counters,
//!   log₂-bucketed histograms and per-span wall-time totals.
//!   [`Recorder::snapshot`] returns a [`MetricsSnapshot`] with
//!   `BTreeMap`-sorted keys, so two runs of a deterministic workload
//!   produce byte-identical snapshot JSON (wall times excluded — see
//!   [`MetricsSnapshot::to_json`]).
//! * **Per-slot records**: the MCS drivers fill [`SlotMetrics`] rows
//!   (feasible-set size, tags served, fallback flag, wall time) exported
//!   via [`slot_metrics_to_csv`] / [`slot_metrics_to_json`].
//!
//! The determinism contract: subscribers observe; they never steer.
//! Instrumented code must produce bit-identical outputs whether a
//! subscriber is attached or not (enforced by differential proptests in
//! `tests/observability.rs`).

#![warn(missing_docs)]

mod json;
mod recorder;
mod slot;
mod subscriber;

pub use recorder::{HistogramSnapshot, MetricsSnapshot, Recorder, SpanSnapshot};
pub use slot::{slot_metrics_to_csv, slot_metrics_to_json, SlotMetrics};
pub use subscriber::{NoopSubscriber, SpanGuard, Subscriber};

/// Filters a subscriber handle down to `Some` only when it is both
/// present and enabled. The macros route through this so a disabled
/// subscriber costs one branch, exactly like an absent one.
#[inline]
pub fn active(sub: Option<&dyn Subscriber>) -> Option<&dyn Subscriber> {
    match sub {
        Some(s) if s.enabled() => Some(s),
        _ => None,
    }
}

/// Opens a wall-clock span: `let _g = span!(sub, "mcs.slot");`.
///
/// The returned [`SpanGuard`] reports its elapsed nanoseconds to
/// [`Subscriber::span_close`] on drop. Bind it to a named `_`-prefixed
/// variable — a bare `span!(...)` expression drops immediately and times
/// nothing.
#[macro_export]
macro_rules! span {
    ($sub:expr, $name:expr) => {
        $crate::SpanGuard::enter($sub, $name)
    };
}

/// Adds `delta` (default 1) to a named monotone counter.
#[macro_export]
macro_rules! counter {
    ($sub:expr, $name:expr) => {
        $crate::counter!($sub, $name, 1u64)
    };
    ($sub:expr, $name:expr, $delta:expr) => {
        if let Some(s) = $crate::active($sub) {
            s.counter($name, $delta as u64);
        }
    };
}

/// Records one observation into a named log₂-bucketed histogram.
#[macro_export]
macro_rules! histogram {
    ($sub:expr, $name:expr, $value:expr) => {
        if let Some(s) = $crate::active($sub) {
            s.histogram($name, $value as u64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_reach_an_attached_recorder() {
        let rec = Recorder::new();
        let sub: Option<&dyn Subscriber> = Some(&rec);
        {
            let _g = span!(sub, "test.span");
            counter!(sub, "test.count", 3);
            counter!(sub, "test.count", 4);
            histogram!(sub, "test.histo", 17);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("test.count"), 7);
        assert_eq!(snap.histograms["test.histo"].count, 1);
        assert_eq!(snap.histograms["test.histo"].sum, 17);
        assert_eq!(snap.spans["test.span"].count, 1);
    }

    #[test]
    fn none_and_noop_subscribers_are_inert() {
        let none: Option<&dyn Subscriber> = None;
        counter!(none, "x", 1);
        let noop = NoopSubscriber;
        let sub: Option<&dyn Subscriber> = Some(&noop);
        // `active` filters the disabled subscriber out before any call.
        assert!(active(sub).is_none());
        counter!(sub, "x", 1);
        let _g = span!(sub, "x");
    }

    #[test]
    fn snapshot_json_is_deterministic_across_insertion_orders() {
        let make = |flip: bool| {
            let rec = Recorder::new();
            let sub: Option<&dyn Subscriber> = Some(&rec);
            if flip {
                counter!(sub, "b", 2);
                counter!(sub, "a", 1);
            } else {
                counter!(sub, "a", 1);
                counter!(sub, "b", 2);
            }
            rec.snapshot().to_json()
        };
        assert_eq!(make(false), make(true));
    }
}
