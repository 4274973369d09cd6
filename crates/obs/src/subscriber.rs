//! The [`Subscriber`] trait and the RAII span guard.

use std::time::Instant;

/// The observation sink threaded through instrumented code.
///
/// Contract (DESIGN.md §8): implementations *observe* — they must not
/// feed anything back into the instrumented computation, and instrumented
/// code must behave bit-identically whether a subscriber is attached or
/// not. All methods take `&self`; implementations shared across threads
/// (the serve workers share one recorder) must be internally synchronised
/// (`Send + Sync`).
pub trait Subscriber: Send + Sync {
    /// `false` silences this subscriber at every instrumentation site
    /// before any argument is materialised (see [`crate::active`]).
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the named monotone counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// Records one observation into the named histogram.
    fn histogram(&self, name: &'static str, value: u64);

    /// A span closed after `nanos` wall-clock nanoseconds.
    fn span_close(&self, name: &'static str, nanos: u64);
}

/// The always-disabled subscriber: every site short-circuits before
/// calling in, so attaching it is equivalent to attaching `None`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn enabled(&self) -> bool {
        false
    }

    fn counter(&self, _name: &'static str, _delta: u64) {}

    fn histogram(&self, _name: &'static str, _value: u64) {}

    fn span_close(&self, _name: &'static str, _nanos: u64) {}
}

/// RAII wall-clock span: created by [`span!`](crate::span!), reports the
/// elapsed time to [`Subscriber::span_close`] on drop. When no enabled
/// subscriber is attached the guard holds nothing and the clock is never
/// read.
#[must_use = "a span guard times its enclosing scope; bind it to a variable"]
pub struct SpanGuard<'a> {
    /// `Some` only when an enabled subscriber will receive the close.
    armed: Option<(&'a dyn Subscriber, Instant)>,
    name: &'static str,
}

impl<'a> SpanGuard<'a> {
    /// Opens the span (used via the [`span!`](crate::span!) macro).
    #[inline]
    pub fn enter(sub: Option<&'a dyn Subscriber>, name: &'static str) -> Self {
        SpanGuard {
            armed: crate::active(sub).map(|s| (s, Instant::now())),
            name,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((sub, start)) = self.armed.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sub.span_close(self.name, nanos);
        }
    }
}
