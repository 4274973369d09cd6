//! A zero-dependency nonblocking readiness loop with request pipelining.
//!
//! The PR-4 daemon parked one thread per connection in a blocking read
//! — fine at tens of clients, a wall at thousands (a stack and a
//! scheduler slot per idle socket, a 200 ms poll tick per read). This
//! module replaces that with **one** event thread over nonblocking
//! `std::net` sockets (per the vendored-offline policy: no mio, no
//! epoll binding — `poll(2)`, declared here, which std's libc already
//! links):
//!
//! * Each connection owns a read buffer and a write buffer. The loop
//!   try-reads every socket, slices complete JSON lines out of the read
//!   buffer, and hands them to the [`FrameHandler`].
//! * The handler answers [`Reply::Now`] (bytes ready — a cache hit, an
//!   admission error) or [`Reply::Pending`] (a poll object — the job is
//!   queued behind the worker pool). Replies join a per-connection FIFO
//!   and are flushed **strictly in request order**, so clients may
//!   pipeline many requests on one connection and still match
//!   responses to requests positionally — the protocol's ordering
//!   guarantee, now load-bearing.
//! * Backpressure is structural: a connection with [`MAX_PIPELINE`]
//!   undelivered replies is not read from until its queue drains, so a
//!   client that floods requests fills its own TCP window, not our
//!   memory.
//! * When a full scan makes no progress the loop blocks in `poll(2)`
//!   over the sockets that can make progress and a wake socket, until
//!   the earliest deadline of a pending reply (no timeout without one).
//!   A pending reply hands the loop's [`Waker`] to what it waits on;
//!   waking it writes one byte to the wake socket.
//!
//! The worker pool is untouched: solving still happens on
//! [`crate::WorkQueue`] workers; a pending reply takes its job's
//! [`crate::ResponseSlot`] with the loop's waker, and the worker's
//! `fulfill` wakes the loop, so the reply is flushed at once.

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Undelivered replies per connection before the reactor stops reading
/// from it (resumes as the queue drains).
pub const MAX_PIPELINE: usize = 1024;

/// Read-buffer cap per connection: a single line longer than this is a
/// protocol abuse and drops the connection.
const MAX_LINE_BYTES: usize = 32 * 1024 * 1024;

/// Consumed-prefix size at which the read buffer is compacted (one
/// `copy_within` of the partial tail) instead of merely advancing the
/// offset. Matches the read chunk size: compaction happens at most once
/// per read batch, never once per line.
const RD_COMPACT_AT: usize = 16 * 1024;

/// Largest recycled write chunk kept per connection. A chunk that grew
/// beyond this (one giant burst) is dropped back to the allocator
/// rather than pinned forever.
const SPARE_CHUNK_CAP: usize = 64 * 1024;

/// Segments per `write_vectored` call.
const MAX_IOV: usize = 16;

/// How long the final drain (flush-out after `finish`) may take before
/// remaining connections are dropped.
const DRAIN_CAP: Duration = Duration::from_secs(10);

/// One response, possibly not ready yet.
pub enum Reply {
    /// The full response frame (newline-terminated), ready to send.
    Now(String),
    /// A frame assembled from pre-rendered segments: a small envelope
    /// prefix, a shared payload (typically a cache entry's pre-escaped
    /// bytes) and a static suffix. The reactor writes the three
    /// segments with vectored I/O — the payload is never copied into a
    /// per-reply `String`, which is what makes the request-by-key hit
    /// path serde- and memcpy-free on the server side.
    Spliced(SplicedFrame),
    /// The response is being produced (a queued solve or forward). The
    /// reactor polls the reply while it heads its connection's FIFO:
    /// again each time the waker it was given is woken, and at the
    /// deadline, if any, by which the reply must yield (its `504`).
    Pending(Box<dyn PendingReply>, Option<Instant>),
}

/// The segments of a [`Reply::Spliced`] frame: bytes on the wire are
/// exactly `prefix + payload + suffix`.
pub struct SplicedFrame {
    /// Envelope up to (and including) the opening of the payload field.
    pub prefix: String,
    /// The shared payload bytes, spliced in by reference.
    pub payload: Arc<str>,
    /// Envelope close, newline included.
    pub suffix: &'static str,
}

/// A reply still in flight, polled in the shape of `Future::poll`.
/// Implementations must be cheap (a `try_take` on a slot plus a
/// deadline check), must arrange for `waker` to be woken when they can
/// yield, and must yield once their [`Reply::Pending`] deadline passes:
/// the loop sleeps until one of the two, so an abandoned solve still
/// answers with a `504` frame.
pub trait PendingReply: Send {
    /// `Some(frame)` once the response bytes are ready; `None` after
    /// handing `waker` to whatever will make them ready.
    fn poll(&mut self, waker: &Waker) -> Option<String>;
}

impl<F: FnMut(&Waker) -> Option<String> + Send> PendingReply for F {
    fn poll(&mut self, waker: &Waker) -> Option<String> {
        self(waker)
    }
}

/// The application half of the event loop: turns one request line into
/// its [`Reply`]. One instance is shared by every connection, so
/// implementations hold their state behind `Arc`s (the daemon's handler
/// wraps [`crate::Service`], the router's wraps its forwarding pool).
pub trait FrameHandler: Send + Sync + 'static {
    /// Handles one complete, newline-stripped request line.
    fn on_line(&self, line: &str) -> Reply;

    /// The frame sent in place of a reply still pending when the final
    /// drain gives up on it (shutdown with the result not ready).
    fn drain_fallback(&self) -> String;
}

/// One span of queued outgoing bytes. Small frames coalesce into reused
/// `Chunk` buffers; shared payloads ride as `Arc` slices so the reply
/// path never copies them.
enum OutSeg {
    Chunk(Vec<u8>),
    Shared(Arc<str>),
}

impl OutSeg {
    fn as_bytes(&self) -> &[u8] {
        match self {
            OutSeg::Chunk(v) => v,
            OutSeg::Shared(s) => s.as_bytes(),
        }
    }
}

/// The per-connection write path: a segment queue flushed with vectored
/// writes. Consecutive small frames append into one `Chunk` (whose
/// backing `Vec` is recycled after a full flush instead of reallocated
/// per frame), while spliced payloads are chained in by reference.
struct OutQueue {
    segs: VecDeque<OutSeg>,
    /// Bytes of the front segment already written to the socket.
    front_written: usize,
    /// A drained chunk kept for reuse.
    spare: Option<Vec<u8>>,
}

impl OutQueue {
    fn new() -> Self {
        OutQueue {
            segs: VecDeque::new(),
            front_written: 0,
            spare: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        // Appending to the tail chunk is safe even when it is also the
        // partially-written front: `front_written` indexes from the
        // start and writes only consume, never reorder.
        if let Some(OutSeg::Chunk(chunk)) = self.segs.back_mut() {
            chunk.extend_from_slice(bytes);
            return;
        }
        let mut chunk = self.spare.take().unwrap_or_default();
        chunk.extend_from_slice(bytes);
        self.segs.push_back(OutSeg::Chunk(chunk));
    }

    fn push_shared(&mut self, payload: Arc<str>) {
        if !payload.is_empty() {
            self.segs.push_back(OutSeg::Shared(payload));
        }
    }

    /// Consumes `n` written bytes off the front of the queue.
    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let Some(front) = self.segs.front() else {
                break;
            };
            let remaining = front.as_bytes().len() - self.front_written;
            if n >= remaining {
                n -= remaining;
                self.front_written = 0;
                if let Some(OutSeg::Chunk(chunk)) = self.segs.pop_front() {
                    self.recycle(chunk);
                }
            } else {
                self.front_written += n;
                n = 0;
            }
        }
    }

    fn recycle(&mut self, mut chunk: Vec<u8>) {
        if chunk.capacity() == 0 || chunk.capacity() > SPARE_CHUNK_CAP {
            return;
        }
        chunk.clear();
        let better = match &self.spare {
            Some(spare) => chunk.capacity() > spare.capacity(),
            None => true,
        };
        if better {
            self.spare = Some(chunk);
        }
    }

    /// Writes as much as the socket accepts, gathering up to [`MAX_IOV`]
    /// segments per syscall. Returns `(progress, dead)`.
    fn flush(&mut self, stream: &mut TcpStream) -> (bool, bool) {
        let mut progress = false;
        loop {
            if self.segs.is_empty() {
                return (progress, false);
            }
            let mut iov: [IoSlice<'_>; MAX_IOV] = [IoSlice::new(&[]); MAX_IOV];
            let mut n_iov = 0;
            for (i, seg) in self.segs.iter().enumerate().take(MAX_IOV) {
                let bytes = seg.as_bytes();
                iov[n_iov] = IoSlice::new(if i == 0 {
                    &bytes[self.front_written..]
                } else {
                    bytes
                });
                n_iov += 1;
            }
            match stream.write_vectored(&iov[..n_iov]) {
                Ok(0) => return (true, true),
                Ok(n) => {
                    self.advance(n);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return (progress, false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (true, true),
            }
        }
    }
}

struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into lines. Consumed lines advance
    /// `rdstart` instead of draining the buffer — the per-line memmove
    /// and reallocation are reclaimed in one batch by `reclaim_rdbuf`.
    rdbuf: Vec<u8>,
    /// Offset of the first unconsumed byte in `rdbuf`.
    rdstart: usize,
    /// Offset into `rdbuf` already scanned for a newline (absolute,
    /// `>= rdstart`).
    scanned: usize,
    /// The vectored write path: encoded replies not yet on the socket.
    out: OutQueue,
    /// Replies not yet moved into `out`, strictly in request order.
    replies: VecDeque<Reply>,
    /// Peer half-closed its write side: serve what is buffered, flush,
    /// then drop.
    eof: bool,
    /// Socket error or protocol abuse: drop now.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rdbuf: Vec::new(),
            rdstart: 0,
            scanned: 0,
            out: OutQueue::new(),
            replies: VecDeque::new(),
            eof: false,
            dead: false,
        }
    }

    fn drained(&self) -> bool {
        self.replies.is_empty() && self.out.is_empty()
    }
}

struct Flags {
    /// Stop accepting connections and stop reading new frames.
    stop: AtomicBool,
    /// Resolve leftovers, flush, exit.
    finish: AtomicBool,
}

/// The running event loop. Owns the listener and every connection;
/// dropped (or [`Reactor::stop`]ped) it resolves outstanding replies,
/// flushes and exits.
pub struct Reactor {
    flags: Arc<Flags>,
    /// Wakes the loop to see a flag change.
    waker: Waker,
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Starts the event thread over a bound listener.
    pub fn spawn<H: FrameHandler>(
        listener: TcpListener,
        handler: Arc<H>,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let flags = Arc::new(Flags {
            stop: AtomicBool::new(false),
            finish: AtomicBool::new(false),
        });
        let loop_flags = Arc::clone(&flags);
        let (idle, waker) = idle::Idle::new()?;
        let loop_waker = waker.clone();
        let handle = std::thread::Builder::new()
            .name("serve-reactor".into())
            .spawn(move || event_loop(listener, handler, &loop_flags, idle, &loop_waker))?;
        Ok(Reactor {
            flags,
            waker,
            addr,
            handle: Some(handle),
        })
    }

    /// The listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and reading new frames. Already
    /// queued replies keep flushing. Idempotent.
    pub fn pause_intake(&self) {
        self.flags.stop.store(true, Ordering::SeqCst);
        self.waker.wake_by_ref();
    }

    /// Ends the loop: intake stops, every pending reply is given one
    /// last poll (the handler's drain fallback answers for any still
    /// not ready), buffers are flushed (bounded by an internal cap) and
    /// the thread exits. Blocks until it has.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.flags.stop.store(true, Ordering::SeqCst);
        self.flags.finish.store(true, Ordering::SeqCst);
        self.waker.wake_by_ref();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn event_loop<H: FrameHandler>(
    listener: TcpListener,
    handler: Arc<H>,
    flags: &Flags,
    mut idle: idle::Idle,
    waker: &Waker,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut drain_started: Option<Instant> = None;
    // An accept error other than `WouldBlock` or `ConnectionAborted`
    // (EMFILE) leaves the listener readable; it sits out of the poll set
    // until a connection closes, so a full fd table cannot spin the loop.
    let mut accept_parked = false;
    loop {
        let finishing = flags.finish.load(Ordering::SeqCst);
        if finishing && drain_started.is_none() {
            drain_started = Some(Instant::now());
            for conn in &mut conns {
                resolve_for_drain(conn, handler.as_ref(), waker);
            }
        }
        let mut progress = false;

        let intake = !flags.stop.load(Ordering::SeqCst);
        if intake && !accept_parked {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream));
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                    Err(_) => {
                        accept_parked = true;
                        break;
                    }
                }
            }
        }

        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            if intake {
                progress |= read_and_dispatch(conn, handler.as_ref());
            }
            progress |= pump_replies(conn, waker);
            progress |= flush(conn);
        }
        // A connection is kept unless it died, or hit EOF with nothing
        // left to answer or parse.
        let open = conns.len();
        conns.retain(|c| {
            let exhausted = c.eof && c.drained() && c.scanned >= c.rdbuf.len();
            !(c.dead || exhausted)
        });
        accept_parked &= conns.len() == open;

        if finishing {
            let done = conns.iter().all(|c| c.drained());
            let capped = drain_started
                .map(|t| t.elapsed() > DRAIN_CAP)
                .unwrap_or(true);
            if done || capped {
                return;
            }
        }
        if !progress {
            // Only a FIFO head is ever polled, so only its deadline can
            // end the wait; the drain has resolved every pending reply.
            let deadline = match drain_started {
                Some(t) => Some(t + DRAIN_CAP),
                None => conns
                    .iter()
                    .filter_map(|c| match c.replies.front() {
                        Some(Reply::Pending(_, deadline)) => *deadline,
                        _ => None,
                    })
                    .min(),
            };
            let listener = (intake && !accept_parked).then_some(&listener);
            idle.wait(listener, &conns, intake, deadline);
        }
    }
}

/// Nonblocking read + line dispatch. Returns `true` on any progress.
fn read_and_dispatch<H: FrameHandler>(conn: &mut Conn, handler: &H) -> bool {
    if conn.replies.len() >= MAX_PIPELINE {
        return false; // backpressure: let the client's TCP window fill
    }
    let mut buf = [0u8; 16 * 1024];
    let mut progress = false;
    while !conn.eof {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                progress = true;
                break;
            }
            Ok(n) => {
                conn.rdbuf.extend_from_slice(&buf[..n]);
                progress = true;
                if conn.rdbuf.len() - conn.rdstart > MAX_LINE_BYTES {
                    conn.dead = true;
                    return true;
                }
                if conn.replies.len() >= MAX_PIPELINE {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }
    // Slice out complete lines in place — each consumed line advances
    // `rdstart`; the buffer itself is reclaimed once, after the loop.
    while let Some(nl) = find_newline(conn) {
        let start = conn.rdstart;
        conn.rdstart = nl + 1;
        conn.scanned = nl + 1;
        let line = String::from_utf8_lossy(&conn.rdbuf[start..nl]);
        if line.trim().is_empty() {
            continue;
        }
        progress = true;
        conn.replies.push_back(handler.on_line(&line));
    }
    reclaim_rdbuf(conn);
    progress
}

fn find_newline(conn: &mut Conn) -> Option<usize> {
    let start = conn.scanned.max(conn.rdstart);
    match conn.rdbuf[start..].iter().position(|&b| b == b'\n') {
        Some(off) => Some(start + off),
        None => {
            conn.scanned = conn.rdbuf.len();
            None
        }
    }
}

/// Reclaims the consumed prefix of the read buffer: cleared outright
/// when fully consumed (capacity retained for the next read batch),
/// compacted with one `copy_within` once the dead prefix crosses
/// [`RD_COMPACT_AT`], left alone otherwise — a small partial tail is
/// cheaper to carry than to move every pass.
fn reclaim_rdbuf(conn: &mut Conn) {
    if conn.rdstart == 0 {
        return;
    }
    if conn.rdstart >= conn.rdbuf.len() {
        conn.rdbuf.clear();
    } else if conn.rdstart >= RD_COMPACT_AT {
        let len = conn.rdbuf.len();
        conn.rdbuf.copy_within(conn.rdstart..len, 0);
        conn.rdbuf.truncate(len - conn.rdstart);
    } else {
        return;
    }
    conn.scanned -= conn.rdstart;
    conn.rdstart = 0;
}

/// Moves ready replies (in order) from the FIFO into the write queue.
/// A pending head blocks everything behind it — that is the ordering
/// guarantee. Spliced frames enqueue their payload by reference.
fn pump_replies(conn: &mut Conn, waker: &Waker) -> bool {
    let mut progress = false;
    while let Some(head) = conn.replies.front_mut() {
        if let Reply::Pending(reply, _) = head {
            match reply.poll(waker) {
                Some(frame) => *head = Reply::Now(frame),
                None => break,
            }
        }
        match conn.replies.pop_front().expect("head exists") {
            Reply::Now(frame) => conn.out.push_bytes(frame.as_bytes()),
            Reply::Spliced(frame) => {
                conn.out.push_bytes(frame.prefix.as_bytes());
                conn.out.push_shared(frame.payload);
                conn.out.push_bytes(frame.suffix.as_bytes());
            }
            Reply::Pending(..) => unreachable!("resolved above"),
        }
        progress = true;
    }
    progress
}

fn flush(conn: &mut Conn) -> bool {
    let (progress, dead) = conn.out.flush(&mut conn.stream);
    if dead {
        conn.dead = true;
    }
    progress
}

/// Final-drain policy: each pending reply gets one last poll; those
/// still unresolved answer with the handler's fallback frame (the
/// worker that would have fulfilled them is gone or going).
fn resolve_for_drain<H: FrameHandler>(conn: &mut Conn, handler: &H, waker: &Waker) {
    for slot in conn.replies.iter_mut() {
        if let Reply::Pending(reply, _) = slot {
            let frame = reply
                .poll(waker)
                .unwrap_or_else(|| handler.drain_fallback());
            *slot = Reply::Now(frame);
        }
    }
}

/// The loop's wait after a scan that made no progress, and the wake
/// that ends it.
#[cfg(unix)]
mod idle {
    use super::{Conn, Waker, MAX_PIPELINE};
    use std::ffi::{c_int, c_short, c_ulong};
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Instant;

    /// `struct pollfd` of `<poll.h>`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;

    extern "C" {
        /// `poll(2)`; `nfds_t` is `unsigned long` on Linux.
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// The write end of the wake socket. A wake writes one byte; a full
    /// socket (`WouldBlock`) means a wake is already pending.
    struct WakeSocket(UnixStream);

    impl std::task::Wake for WakeSocket {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            let _ = (&self.0).write(&[1]);
        }
    }

    /// The read end of the wake socket, and the poll set rebuilt before
    /// each wait.
    pub(super) struct Idle {
        wake: UnixStream,
        fds: Vec<PollFd>,
    }

    impl Idle {
        /// The loop's half, and the waker that ends its wait.
        pub(super) fn new() -> std::io::Result<(Idle, Waker)> {
            let (wake, sender) = UnixStream::pair()?;
            wake.set_nonblocking(true)?;
            sender.set_nonblocking(true)?;
            let waker = Waker::from(Arc::new(WakeSocket(sender)));
            let fds = Vec::new();
            Ok((Idle { wake, fds }, waker))
        }

        /// Blocks until the listener (when given) can accept, a
        /// connection that can make progress is readable or writable,
        /// the waker is woken, or `deadline` passes, then drains the
        /// wake socket. A connection that wants neither is left out, so
        /// a hung-up socket cannot end the wait. An interrupted or
        /// failed `poll` returns at once: the caller scans again.
        pub(super) fn wait(
            &mut self,
            listener: Option<&TcpListener>,
            conns: &[Conn],
            reading: bool,
            deadline: Option<Instant>,
        ) {
            let wake = (self.wake.as_raw_fd(), POLLIN);
            let listener = listener.map(|l| (l.as_raw_fd(), POLLIN));
            // A socket at EOF polls readable forever.
            let conns = conns.iter().map(|c| {
                let read = reading && !c.eof && c.replies.len() < MAX_PIPELINE;
                let events = if read { POLLIN } else { 0 };
                let write = if c.out.is_empty() { 0 } else { POLLOUT };
                (c.stream.as_raw_fd(), events | write)
            });
            self.fds.clear();
            let set = [wake].into_iter().chain(listener).chain(conns);
            for (fd, events) in set.filter(|&(_, events)| events != 0) {
                self.fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            // Rounded up: a wait that ends before the deadline would
            // find nothing to do and wait again.
            let timeout = deadline.map_or(-1, |at| {
                let nanos = at.saturating_duration_since(Instant::now()).as_nanos();
                nanos.div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
            });
            // SAFETY: `fds` is a live, exclusively borrowed buffer of
            // `fds.len()` `pollfd` structs; `poll` writes only `revents`.
            unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout) };
            let mut sink = [0u8; 64];
            while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// Without `poll(2)` the loop sleeps between scans and nothing wakes it.
#[cfg(not(unix))]
mod idle {
    use super::{Conn, Waker};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// Sleep when a full scan made no progress.
    const IDLE_SLEEP: Duration = Duration::from_micros(500);

    pub(super) struct Idle;

    impl Idle {
        pub(super) fn new() -> std::io::Result<(Idle, Waker)> {
            Ok((Idle, Waker::noop().clone()))
        }

        pub(super) fn wait(
            &mut self,
            _listener: Option<&TcpListener>,
            _conns: &[Conn],
            _reading: bool,
            _deadline: Option<Instant>,
        ) {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::Mutex;

    /// Echoes `ok:<line>`; `slow:<n>` answers after `n` polls, waking
    /// the loop itself on each; `key:<x>` and `big` answer with spliced
    /// frames; `gated:<x>` answers once the shared gate opens;
    /// `timed:<ms>` answers at its deadline and is never woken.
    struct EchoHandler {
        /// Every line that reached `on_line`, in order.
        seen: Mutex<Vec<String>>,
        /// While shut, `gated:` replies stay pending.
        gate: Arc<Gate>,
    }

    /// A latch that `gated:` replies poll; opening it wakes the waker
    /// the last poll left.
    #[derive(Default)]
    struct Gate {
        open: AtomicBool,
        waker: Mutex<Option<Waker>>,
    }

    impl Gate {
        fn poll(&self, waker: &Waker) -> bool {
            *self.waker.lock().unwrap() = Some(waker.clone());
            self.open.load(Ordering::SeqCst)
        }

        fn open(&self) {
            self.open.store(true, Ordering::SeqCst);
            if let Some(waker) = self.waker.lock().unwrap().take() {
                waker.wake();
            }
        }
    }

    fn pending(reply: impl FnMut(&Waker) -> Option<String> + Send + 'static) -> Reply {
        Reply::Pending(Box::new(reply), None)
    }

    impl FrameHandler for EchoHandler {
        fn on_line(&self, line: &str) -> Reply {
            let line = line.trim().to_string();
            self.seen.lock().unwrap().push(line.clone());
            if let Some(n) = line.strip_prefix("slow:") {
                let mut left: u32 = n.parse().unwrap();
                let tag = line.clone();
                return pending(move |waker| {
                    if left == 0 {
                        Some(format!("ok:{tag}\n"))
                    } else {
                        left -= 1;
                        waker.wake_by_ref();
                        None
                    }
                });
            }
            if let Some(tag) = line.strip_prefix("gated:") {
                let gate = Arc::clone(&self.gate);
                let tag = tag.to_string();
                return pending(move |waker| gate.poll(waker).then(|| format!("ok:gated:{tag}\n")));
            }
            if let Some(ms) = line.strip_prefix("timed:") {
                let at = Instant::now() + Duration::from_millis(ms.parse().unwrap());
                let tag = line.clone();
                let reply = move |_: &Waker| (Instant::now() >= at).then(|| format!("ok:{tag}\n"));
                return Reply::Pending(Box::new(reply), Some(at));
            }
            if let Some(tag) = line.strip_prefix("key:") {
                return Reply::Spliced(SplicedFrame {
                    prefix: format!("{{\"k\":\"{tag}\",\"p\":"),
                    payload: Arc::from(format!("\"payload-{tag}\"")),
                    suffix: "}\n",
                });
            }
            if line == "big" {
                return Reply::Spliced(SplicedFrame {
                    prefix: "big:".into(),
                    payload: Arc::from("x".repeat(4 * 1024 * 1024)),
                    suffix: ":end\n",
                });
            }
            Reply::Now(format!("ok:{line}\n"))
        }

        fn drain_fallback(&self) -> String {
            "drained\n".into()
        }
    }

    fn echo_reactor() -> (Reactor, String, Arc<EchoHandler>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler = Arc::new(EchoHandler {
            seen: Mutex::new(Vec::new()),
            gate: Arc::default(),
        });
        let reactor = Reactor::spawn(listener, Arc::clone(&handler)).unwrap();
        let addr = reactor.addr().to_string();
        (reactor, addr, handler)
    }

    #[test]
    fn round_trips_one_frame() {
        let (reactor, addr, _) = echo_reactor();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream);
        reader.get_mut().write_all(b"hello\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok:hello\n");
        reactor.stop();
    }

    #[test]
    fn pipelined_frames_answer_in_request_order_despite_slow_heads() {
        let (reactor, addr, _) = echo_reactor();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream);
        // The slow head must NOT be overtaken by the fast followers.
        reader
            .get_mut()
            .write_all(b"slow:40\nfast1\nfast2\nslow:2\nfast3\n")
            .unwrap();
        let mut lines = Vec::new();
        for _ in 0..5 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        assert_eq!(
            lines,
            vec![
                "ok:slow:40",
                "ok:fast1",
                "ok:fast2",
                "ok:slow:2",
                "ok:fast3"
            ]
        );
        reactor.stop();
    }

    #[test]
    fn an_unwoken_pending_head_answers_at_its_deadline() {
        let (reactor, addr, _) = echo_reactor();
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let sent = Instant::now();
        reader.get_mut().write_all(b"timed:40\nafter\n").unwrap();
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("the deadline ends the wait");
        assert_eq!(line, "ok:timed:40\n");
        assert!(sent.elapsed() >= Duration::from_millis(40));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok:after\n");
        reactor.stop();
    }

    #[test]
    fn many_connections_multiplex_on_one_thread() {
        let (reactor, addr, _) = echo_reactor();
        let mut readers: Vec<BufReader<TcpStream>> = (0..32)
            .map(|_| BufReader::new(TcpStream::connect(&addr).unwrap()))
            .collect();
        for (i, r) in readers.iter_mut().enumerate() {
            r.get_mut()
                .write_all(format!("conn{i}\n").as_bytes())
                .unwrap();
        }
        for (i, r) in readers.iter_mut().enumerate().rev() {
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert_eq!(line, format!("ok:conn{i}\n"));
        }
        reactor.stop();
    }

    #[test]
    fn finish_resolves_unready_pendings_with_the_fallback() {
        let (reactor, addr, _) = echo_reactor();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream);
        // A reply that would take ~forever (1e9 polls) to resolve.
        reader.get_mut().write_all(b"slow:1000000000\n").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        reactor.stop(); // must not hang: fallback answers
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "drained\n");
    }

    #[test]
    fn half_close_still_gets_all_responses() {
        let (reactor, addr, _) = echo_reactor();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream);
        reader.get_mut().write_all(b"a\nslow:5\nb\n").unwrap();
        reader
            .get_mut()
            .shutdown(std::net::Shutdown::Write)
            .unwrap();
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        assert_eq!(lines, vec!["ok:a", "ok:slow:5", "ok:b"]);
        reactor.stop();
    }

    #[test]
    fn spliced_frames_survive_partial_writes_to_a_slow_reader() {
        let (reactor, addr, _) = echo_reactor();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream);
        reader.get_mut().write_all(b"before\nbig\nafter\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok:before\n");
        // The 4 MB spliced frame dwarfs the loopback send buffer, so
        // the envelope+payload+suffix splice is forced through many
        // partial vectored writes while we drain at BufReader pace.
        std::thread::sleep(Duration::from_millis(20));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, format!("big:{}:end\n", "x".repeat(4 * 1024 * 1024)));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok:after\n");
        reactor.stop();
    }

    #[test]
    fn backpressure_with_interleaved_key_and_full_frames_keeps_order() {
        let (reactor, addr, handler) = echo_reactor();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream);
        // A gated head plus enough followers to cross MAX_PIPELINE, key
        // and full frames interleaved.
        let total = MAX_PIPELINE + 200;
        let mut batch = String::from("gated:head\n");
        for i in 1..total {
            if i % 3 == 0 {
                batch.push_str(&format!("key:{i}\n"));
            } else {
                batch.push_str(&format!("full{i}\n"));
            }
        }
        let mut wr = reader.get_ref().try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            wr.write_all(batch.as_bytes()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        handler.gate.open();
        let mut lines = Vec::new();
        for _ in 0..total {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line);
        }
        writer.join().unwrap();
        assert_eq!(lines[0], "ok:gated:head\n");
        for (i, line) in lines.iter().enumerate().skip(1) {
            let expect = if i % 3 == 0 {
                format!("{{\"k\":\"{i}\",\"p\":\"payload-{i}\"}}\n")
            } else {
                format!("ok:full{i}\n")
            };
            assert_eq!(*line, expect, "frame {i} out of order");
        }
        reactor.stop();
    }

    #[test]
    fn connection_severed_mid_key_frame_never_reaches_the_handler() {
        let (reactor, addr, handler) = echo_reactor();
        {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut reader = BufReader::new(stream);
            reader
                .get_mut()
                .write_all(b"whole\n{\"Key\":{\"key\":\"0123456789abcdef\"")
                .unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "ok:whole\n");
        } // dropped: the key frame is severed mid-bytes, no newline
        std::thread::sleep(Duration::from_millis(50));
        // A fresh connection is served as if nothing happened...
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream);
        reader.get_mut().write_all(b"next\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok:next\n");
        // ...and the half-frame never reached the handler.
        let seen = handler.seen.lock().unwrap();
        assert_eq!(*seen, vec!["whole".to_string(), "next".to_string()]);
        reactor.stop();
    }
}
