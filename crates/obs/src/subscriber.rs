//! The [`Subscriber`] trait, event field values and the RAII span guard.

use std::time::Instant;

/// A dynamically-typed event field value.
///
/// Covers the shapes instrumentation sites actually emit (ids, counts,
/// flags, labels); `From` impls let the [`event!`](crate::event!) macro
/// accept plain Rust values.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, weights).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static label.
    Str(&'static str),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded event: name plus field key/value pairs, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name (dot-separated, e.g. `"net.crash"`).
    pub name: String,
    /// Field key/value pairs as emitted.
    pub fields: Vec<(String, Value)>,
}

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

    /// A structured point event.
    fn event(&self, name: &'static str, fields: &[(&'static str, Value)]);

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

    fn event(&self, _name: &'static str, _fields: &[(&'static str, Value)]) {}

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
