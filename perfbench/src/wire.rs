//! Loopback client side: nonblocking JSON-lines connections and the
//! closed loop that keeps a fixed window of requests in flight on
//! each of them from a single thread.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request on the wire, awaiting its reply.
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// When the frame's last byte was written.
    pub sent: Instant,
    /// Index of the frame in the workload's frame list.
    pub frame: usize,
    /// Sequence number of the request within the run.
    pub request: u64,
}

pub struct Conn {
    stream: TcpStream,
    chunk: Box<[u8]>,
    buf: Vec<u8>,
    /// Start of the unconsumed part of `buf`.
    start: usize,
    /// How far `buf` has been searched for a newline.
    scanned: usize,
    pub inflight: VecDeque<InFlight>,
}

const READ_CHUNK: usize = 64 * 1024;
const ROUNDTRIP_SPIN: Duration = Duration::from_millis(2);

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
            buf: Vec::with_capacity(READ_CHUNK),
            start: 0,
            scanned: 0,
            inflight: VecDeque::new(),
        })
    }

    /// Writes `bytes` whole, spinning while the socket buffer is full.
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Writes frames `(index, bytes)` in one batch; each counts as sent
    /// when the batch's last byte is written.
    pub fn send_batch(
        &mut self,
        frames: &[(usize, &[u8])],
        first_request: u64,
    ) -> std::io::Result<()> {
        match frames {
            [] => return Ok(()),
            [(_, one)] => self.write_all(one)?,
            _ => {
                let batch: Vec<u8> = frames.iter().flat_map(|(_, f)| f.iter().copied()).collect();
                self.write_all(&batch)?;
            }
        }
        let sent = Instant::now();
        for (i, &(frame, _)) in frames.iter().enumerate() {
            self.inflight.push_back(InFlight {
                sent,
                frame,
                request: first_request + i as u64,
            });
        }
        Ok(())
    }

    /// Reads whatever has arrived and hands each complete reply line
    /// (newline included) to `on_reply` with the request it answers.
    /// Returns how many replies were delivered.
    pub fn poll(
        &mut self,
        on_reply: &mut dyn FnMut(InFlight, &[u8], Instant),
    ) -> std::io::Result<usize> {
        let mut delivered = 0;
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let at = Instant::now();
        while let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + nl + 1;
            let request = self
                .inflight
                .pop_front()
                .ok_or_else(|| std::io::Error::other("reply without a request"))?;
            on_reply(request, &self.buf[self.start..end], at);
            delivered += 1;
            self.start = end;
            self.scanned = end;
        }
        self.scanned = self.buf.len();
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            self.scanned = 0;
        }
        Ok(delivered)
    }

    /// Sends one frame and waits for its reply (window 1): yielding for
    /// the first [`ROUNDTRIP_SPIN`], so a fast reply is not timed with a
    /// sleep's wake-up, then sleeping, to leave the cores to a solve.
    pub fn roundtrip(&mut self, frame: &[u8]) -> std::io::Result<(Vec<u8>, Duration)> {
        self.send_batch(&[(0, frame)], 0)?;
        let started = Instant::now();
        let mut reply = None;
        while reply.is_none() {
            let n = self.poll(&mut |req, line, at| {
                reply = Some((line.to_vec(), at.duration_since(req.sent)));
            })?;
            if n == 0 && started.elapsed() < ROUNDTRIP_SPIN {
                std::thread::yield_now();
            } else if n == 0 {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        Ok(reply.expect("loop exits on a reply"))
    }
}

/// How the load generator waits when a scan of every connection made no progress.
#[derive(Debug, Clone, Copy)]
pub enum Idle {
    /// Yield the CPU (replies are microseconds apart).
    Yield,
    /// Sleep (replies are milliseconds apart; keep the cores for the
    /// server).
    Sleep(Duration),
}

/// Sees each reply: connection index, the request, the reply line and when
/// it arrived.
pub type OnReply<'a> = dyn FnMut(usize, InFlight, &[u8], Instant) + 'a;

/// Closed loop over `conns`: each connection keeps up to `window` requests
/// in flight and sends its next one only when a reply comes back. New
/// requests start until `until`; the run then drains what is in flight.
/// `next` names the frame a connection sends next (`None` = the workload
/// is exhausted); `on_reply` sees every reply. Returns the number of
/// replies and the time from the first send to the last reply.
pub fn closed_loop(
    conns: &mut [Conn],
    frames: &[Vec<u8>],
    window: usize,
    until: Instant,
    idle: Idle,
    next: &mut dyn FnMut(usize) -> Option<usize>,
    on_reply: &mut OnReply,
) -> std::io::Result<(u64, Duration)> {
    let start = Instant::now();
    let mut last = start;
    let mut request = 0u64;
    let mut replies = 0u64;
    let mut exhausted = false;
    loop {
        let mut progress = false;
        for (ci, conn) in conns.iter_mut().enumerate() {
            let n = conn.poll(&mut |req, line, at| {
                last = at;
                on_reply(ci, req, line, at);
            })?;
            replies += n as u64;
            progress |= n > 0;
            let mut batch: Vec<(usize, &[u8])> = Vec::new();
            if Instant::now() < until {
                while !exhausted && conn.inflight.len() + batch.len() < window {
                    match next(ci) {
                        Some(f) => batch.push((f, &frames[f])),
                        None => exhausted = true,
                    }
                }
            }
            if !batch.is_empty() {
                conn.send_batch(&batch, request)?;
                request += batch.len() as u64;
                progress = true;
            }
        }
        let idle_now = conns.iter().all(|c| c.inflight.is_empty());
        if idle_now && (exhausted || Instant::now() >= until) {
            break;
        }
        if !progress {
            match idle {
                Idle::Yield => std::thread::yield_now(),
                Idle::Sleep(d) => std::thread::sleep(d),
            }
        }
    }
    Ok((replies, last.duration_since(start)))
}
