//! Bounded work queue and per-request response slots.
//!
//! Admission control is the queue's whole point: [`WorkQueue::try_push`]
//! never blocks — a full queue is an immediate [`PushError::Full`]
//! (surfaced to clients as the `429`-style reject), and a closed queue is
//! [`PushError::Closed`] (the `503` during shutdown). Workers block in
//! [`WorkQueue::pop`], which drains remaining items after close and only
//! then returns `None` — that ordering is what makes "drain, then stop"
//! shutdown a one-liner.
//!
//! A [`ResponseSlot`] carries one job's result back to its waiting
//! client. Deadlines live here: [`ResponseSlot::wait`] gives up after
//! the request's deadline and flips the slot to *abandoned*, so a worker
//! that later reaches the job can skip it (or publish the result to the
//! cache anyway — the waiter is gone either way, but nothing hangs).
//! The reactor does not block on a slot: [`ResponseSlot::try_take`]
//! leaves it a [`Waker`] that [`ResponseSlot::fulfill`] wakes.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::task::Waker;
use std::time::{Duration, Instant};

/// Why [`WorkQueue::try_push`] rejected an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — backpressure; retry later.
    Full,
    /// The queue is closed — the service is shutting down.
    Closed,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: non-blocking producers, blocking consumers.
pub struct WorkQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> WorkQueue<T> {
    /// A queue admitting at most `capacity` pending items.
    pub fn new(capacity: usize) -> Self {
        WorkQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking; a full or closed queue rejects.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item. Returns `None` only once the queue is
    /// closed **and** drained — pending work is always handed out first.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue poisoned");
        }
    }

    /// Closes the queue: producers get [`PushError::Closed`], consumers
    /// drain what remains and then see `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        self.ready.notify_all();
    }

    /// Removes and returns every pending item (used by non-draining
    /// shutdown to fail them fast instead of solving them).
    pub fn take_pending(&self) -> Vec<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.items.drain(..).collect()
    }

    /// Number of items waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

enum SlotState<T> {
    /// No result yet; a waiter may still be blocked, and the last
    /// [`try_take`](ResponseSlot::try_take) left its waker here.
    Pending(Option<Waker>),
    /// The waiter gave up (deadline); a late result is discarded.
    Abandoned,
    /// The result is in, not yet collected.
    Done(T),
}

/// A one-shot rendezvous between a client thread and a worker.
pub struct ResponseSlot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

impl<T> Default for ResponseSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ResponseSlot<T> {
    /// An empty (pending) slot.
    pub fn new() -> Self {
        ResponseSlot {
            state: Mutex::new(SlotState::Pending(None)),
            ready: Condvar::new(),
        }
    }

    /// Delivers the result and wakes the waker a pending
    /// [`try_take`](Self::try_take) left, once the lock is released.
    /// Returns `false` when the waiter already abandoned the slot (the
    /// value is dropped); a double fulfill keeps the first.
    pub fn fulfill(&self, value: T) -> bool {
        let mut state = self.state.lock().expect("slot poisoned");
        let SlotState::Pending(waker) = &mut *state else {
            return false;
        };
        let waker = waker.take();
        *state = SlotState::Done(value);
        self.ready.notify_all();
        drop(state);
        if let Some(waker) = waker {
            waker.wake();
        }
        true
    }

    /// `true` once the waiter has given up on this slot.
    pub fn is_abandoned(&self) -> bool {
        matches!(
            *self.state.lock().expect("slot poisoned"),
            SlotState::Abandoned
        )
    }

    /// Non-blocking take, in the shape of `Future::poll`: the result if
    /// it is in; else `None`, with the slot left pending and `waker`
    /// stored for [`fulfill`](Self::fulfill) to wake. This is the
    /// reactor's wait primitive — the event loop sleeps in `poll(2)`
    /// instead of parking a thread per request, and the wake ends it.
    pub fn try_take(&self, waker: &Waker) -> Option<T> {
        let mut state = self.state.lock().expect("slot poisoned");
        match &mut *state {
            SlotState::Pending(stored) => {
                if !stored.as_ref().is_some_and(|w| w.will_wake(waker)) {
                    *stored = Some(waker.clone());
                }
                None
            }
            SlotState::Abandoned => None,
            SlotState::Done(_) => match std::mem::replace(&mut *state, SlotState::Abandoned) {
                SlotState::Done(value) => Some(value),
                _ => unreachable!("matched Done above"),
            },
        }
    }

    /// Gives up on the slot without blocking: a result delivered later
    /// is discarded, exactly as after a [`wait`](Self::wait) timeout.
    pub fn abandon(&self) {
        let mut state = self.state.lock().expect("slot poisoned");
        if matches!(*state, SlotState::Pending(_)) {
            *state = SlotState::Abandoned;
        }
    }

    /// Blocks for the result, up to `deadline` when one is given.
    /// `None` means the deadline expired — the slot flips to abandoned
    /// so a late [`fulfill`](Self::fulfill) is discarded, never leaked
    /// into a reused slot.
    pub fn wait(&self, deadline: Option<Duration>) -> Option<T> {
        let give_up_at = deadline.map(|d| Instant::now() + d);
        let mut state = self.state.lock().expect("slot poisoned");
        loop {
            if let SlotState::Done(_) = *state {
                match std::mem::replace(&mut *state, SlotState::Abandoned) {
                    SlotState::Done(value) => return Some(value),
                    _ => unreachable!("matched Done above"),
                }
            }
            match give_up_at {
                None => state = self.ready.wait(state).expect("slot poisoned"),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        *state = SlotState::Abandoned;
                        return None;
                    }
                    let (s, _timed_out) = self
                        .ready
                        .wait_timeout(state, at - now)
                        .expect("slot poisoned");
                    state = s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn push_pop_in_order() {
        let q = WorkQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_rejects_structurally() {
        let q = WorkQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains_pops() {
        let q = WorkQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1), "pending items drain after close");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(WorkQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn take_pending_empties_the_queue() {
        let q = WorkQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.take_pending(), vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn slot_delivers_across_threads() {
        let slot = Arc::new(ResponseSlot::new());
        let s2 = Arc::clone(&slot);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            assert!(s2.fulfill(42));
        });
        assert_eq!(slot.wait(Some(Duration::from_secs(5))), Some(42));
        h.join().unwrap();
    }

    #[test]
    fn slot_deadline_expires_and_discards_late_results() {
        let slot = ResponseSlot::new();
        assert_eq!(slot.wait(Some(Duration::from_millis(10))), None);
        assert!(slot.is_abandoned());
        assert!(!slot.fulfill(42), "late result must be discarded");
    }

    #[test]
    fn fulfilled_before_wait_returns_immediately() {
        let slot = ResponseSlot::new();
        assert!(slot.fulfill(7));
        assert_eq!(slot.wait(None), Some(7));
    }

    #[test]
    fn try_take_polls_without_blocking() {
        let slot = ResponseSlot::new();
        let waker = Waker::noop();
        assert_eq!(slot.try_take(waker), None);
        assert_eq!(
            slot.try_take(waker),
            None,
            "polling leaves the slot pending"
        );
        assert!(slot.fulfill(9));
        assert_eq!(slot.try_take(waker), Some(9));
        assert_eq!(slot.try_take(waker), None, "one-shot: taken at most once");
    }

    /// Counts its wakes.
    struct CountingWaker(AtomicUsize);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn fulfill_wakes_the_waker_a_pending_take_left() {
        let slot = ResponseSlot::new();
        let wakes = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&wakes));
        assert_eq!(slot.try_take(&waker), None);
        assert_eq!(slot.try_take(&waker), None, "re-polling stores one waker");
        assert_eq!(wakes.0.load(Ordering::SeqCst), 0);
        assert!(slot.fulfill(5));
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "one wake per fulfill");
        assert!(!slot.fulfill(6), "double fulfill keeps the first");
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1);
        assert_eq!(slot.try_take(&waker), Some(5));
    }

    #[test]
    fn abandon_discards_late_results_like_a_timeout() {
        let slot = ResponseSlot::new();
        slot.abandon();
        assert!(slot.is_abandoned());
        assert!(!slot.fulfill(42), "late result must be discarded");
        assert_eq!(slot.try_take(Waker::noop()), None);
    }
}
