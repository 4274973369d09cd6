//! The JSON-lines wire protocol.
//!
//! One frame per line, externally-tagged JSON, newline-terminated —
//! trivially debuggable with `nc` and greppable in captures. Clients
//! send [`Request`] frames; the server answers each with exactly one
//! [`Response`] frame on the same connection, in order. Errors are
//! in-band [`Response::Error`] frames with HTTP-flavoured codes (the
//! transport never closes to signal an application error).
//!
//! Two robustness additions ride on the same framing (DESIGN.md §10):
//!
//! * **Replication** — daemons exchange [`Request::Gossip`] /
//!   [`Response::GossipAck`] frames carrying content-addressed cache
//!   entries, so peers converge on a shared warm cache.
//! * **Failover** — [`Request::Schedule`] carries an optional
//!   `request_id` so a client retrying the (idempotent) request against
//!   another peer can be deduplicated and counted server-side. The
//!   `request_id` is optional on the wire, so pre-failover frames
//!   still parse.

use serde::{Deserialize, Serialize};
use std::io::BufRead;

use crate::codec::JobSpec;
use rfid_delta::ScenarioDelta;

/// The protocol generation this build speaks.
///
/// * **v1** — the PR-4/PR-5 wire format: no `v` field anywhere. Frames
///   without a `v` field parse as `None` and are treated as v1.
/// * **v2** — adds the optional `v` field on [`Request::Schedule`] /
///   [`Request::Gossip`], the [`Request::Hello`] negotiation frame and
///   request pipelining (many in-flight requests per connection,
///   responses strictly in request order).
/// * **v3** — adds [`Request::Delta`]: schedule a scenario described as
///   a base content key plus a [`ScenarioDelta`] op list. Servers that
///   no longer hold the base answer a structured [`CODE_BASE_MISS`]
///   error telling the client to fall back to a full request.
/// * **v4** — adds [`Request::Key`]: address an already-cached schedule
///   by content key alone (optionally key + ops for a cached delta
///   derivation), skipping the scenario codec entirely. Servers that do
///   not hold the key answer a structured [`CODE_KEY_MISS`] error and
///   the client falls back to the full frame.
///
/// Servers answer frames claiming a **newer** major generation with a
/// structured [`CODE_UPGRADE_REQUIRED`] error instead of guessing;
/// older (or absent) versions are always accepted — the format is
/// backward compatible by construction (new fields are optional and
/// new frame variants are opt-in).
pub const PROTOCOL_VERSION: u32 = 4;

/// The frame declared a protocol version newer than this server speaks
/// (HTTP 426 Upgrade Required): upgrade the server or downgrade the
/// client.
pub const CODE_UPGRADE_REQUIRED: u16 = 426;

/// Admission reject: the work queue is full (backpressure) — retry
/// later.
pub const CODE_QUEUE_FULL: u16 = 429;
/// Malformed frame or invalid workload.
pub const CODE_BAD_REQUEST: u16 = 400;
/// The algorithm label matched no registry row.
pub const CODE_UNKNOWN_ALGORITHM: u16 = 404;
/// A [`Request::Delta`] named a base content key this server cannot
/// resolve to a scenario (same 404 family as
/// [`CODE_UNKNOWN_ALGORITHM`]; the message always starts with
/// `base-miss` and tells the client to send the full scenario instead).
pub const CODE_BASE_MISS: u16 = 404;
/// A [`Request::Key`] named a content key (or key + ops derivation)
/// that is not resident in this server's cache (same 404 family; the
/// message always starts with `key-miss` and tells the client to fall
/// back to the full frame).
pub const CODE_KEY_MISS: u16 = 404;
/// The solver could not complete the schedule (strict-policy stall or
/// slot-budget exhaustion).
pub const CODE_UNSOLVABLE: u16 = 422;
/// A worker panicked while solving — a server-side bug, not a bad
/// request.
pub const CODE_INTERNAL: u16 = 500;
/// The service is shutting down and admits no new work.
pub const CODE_SHUTTING_DOWN: u16 = 503;
/// The request's deadline expired before a worker finished it.
pub const CODE_DEADLINE: u16 = 504;

/// One replicated cache entry: the content key (fixed-width hex) and the
/// canonical payload it addresses. Pure function of the key, so
/// applying a gossiped entry is always safe and idempotent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GossipEntry {
    /// Content key as fixed-width hex.
    pub key: String,
    /// Canonical JSON of the [`crate::ScheduleOutcome`] for that key.
    pub payload: String,
}

/// Client→server frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Explicit version negotiation: the client declares the protocol
    /// generation it speaks. Servers answer [`Response::HelloAck`] with
    /// their own [`PROTOCOL_VERSION`], or a [`CODE_UPGRADE_REQUIRED`]
    /// error when the client is newer than they can serve.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        v: u32,
    },
    /// Solve (or fetch from cache) one scheduling job.
    Schedule {
        /// The job to schedule.
        job: JobSpec,
        /// Optional deadline in milliseconds; expiry yields a
        /// [`CODE_DEADLINE`] error frame.
        deadline_ms: Option<u64>,
        /// Optional client-chosen id for failover retries of this
        /// (idempotent) request: a server that has already seen the id
        /// counts the repeat as a dedup instead of fresh demand.
        /// Optional on the wire: frames without it parse as `None`.
        request_id: Option<String>,
        /// Protocol version the sender speaks. Optional on the wire:
        /// v1 frames (no field) parse as `None` and are always served;
        /// a version newer than [`PROTOCOL_VERSION`] draws a
        /// [`CODE_UPGRADE_REQUIRED`] error frame.
        v: Option<u32>,
    },
    /// Solve a scenario described *incrementally* (protocol v3): the
    /// content key of a previously scheduled base job plus a
    /// [`ScenarioDelta`] op list to apply to it. The server resolves
    /// the base from its spec store, applies the ops, solves (or
    /// fetches) the patched scenario and answers a normal
    /// [`Response::Schedule`] whose `key` is the *derived* key
    /// ([`rfid_delta::derived_key`]) — so a follow-up delta can chain
    /// off it. A server that cannot resolve `base` answers a
    /// [`CODE_BASE_MISS`] error; the client falls back to a full
    /// [`Request::Schedule`].
    Delta {
        /// Content key of the base job, fixed-width hex.
        base: String,
        /// The edits to apply to the base scenario, in order.
        ops: Vec<ScenarioDelta>,
        /// Optional deadline in milliseconds; expiry yields a
        /// [`CODE_DEADLINE`] error frame.
        deadline_ms: Option<u64>,
        /// Optional client-chosen id for failover retries (same
        /// semantics as [`Request::Schedule::request_id`]).
        request_id: Option<String>,
        /// Protocol version the sender speaks (same rules as
        /// [`Request::Schedule::v`]).
        v: Option<u32>,
    },
    /// Fetch an already-cached schedule by content key alone (protocol
    /// v4) — the request-by-key fast path. After one full submission
    /// the client knows the job's content key from the reply; repeats
    /// address the cache directly and the server never touches the
    /// scenario codec. With `ops`, the server answers from the cache
    /// entry under [`rfid_delta::derived_key`]`(key, ops)` — the warm
    /// path for a previously solved delta. A key (or derivation) that
    /// is not resident draws a structured [`CODE_KEY_MISS`] error and
    /// the client falls back to the full [`Request::Schedule`] /
    /// [`Request::Delta`] frame. Key requests are answered immediately
    /// (hit or miss), so they carry no deadline.
    Key {
        /// Content key as fixed-width hex, exactly as returned in
        /// [`Response::Schedule::key`].
        key: String,
        /// Optional delta ops: address the cache under the key
        /// *derived* from `key` + `ops` instead of `key` itself.
        ops: Option<Vec<ScenarioDelta>>,
        /// Optional client-chosen id for failover retries (same
        /// semantics as [`Request::Schedule::request_id`]): a repeat of
        /// an id the server already recorded counts as a dedup. Key
        /// requests never record an id themselves, since a probe admits
        /// no job.
        request_id: Option<String>,
        /// Protocol version the sender speaks (same rules as
        /// [`Request::Schedule::v`]).
        v: Option<u32>,
    },
    /// Replicate cache entries from a peer daemon. Entries are applied
    /// idempotently and are **not** re-gossiped (push fan-out only, no
    /// flooding loops).
    Gossip {
        /// The entries to apply.
        entries: Vec<GossipEntry>,
        /// Protocol version of the gossiping peer (same rules as
        /// [`Request::Schedule::v`]).
        v: Option<u32>,
    },
    /// Fetch service counters and the recorder's metrics snapshot.
    Stats,
    /// Ask the daemon to shut down gracefully (drain, then stop). The
    /// server acknowledges with [`Response::Bye`] before stopping.
    Shutdown,
}

/// Checks a frame's declared protocol version. Returns the structured
/// [`CODE_UPGRADE_REQUIRED`] error frame to send when the peer speaks a
/// newer generation than this build; `None` means the frame is
/// serveable (absent version = v1, always accepted).
pub fn version_gate(v: Option<u32>) -> Option<Response> {
    match v {
        Some(v) if v > PROTOCOL_VERSION => Some(Response::Error {
            code: CODE_UPGRADE_REQUIRED,
            message: format!("frame speaks protocol v{v}, this server speaks v{PROTOCOL_VERSION}"),
        }),
        _ => None,
    }
}

/// Server→client frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Acknowledges a [`Request::Hello`] with the server's version.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        v: u32,
    },
    /// A solved (or cached) schedule.
    Schedule {
        /// The job's content key as fixed-width hex — the cache address.
        key: String,
        /// `true` when the payload came from the cache.
        cached: bool,
        /// Canonical JSON of a [`crate::ScheduleOutcome`]. Byte-identical
        /// across cold solve, warm cache, in-process and TCP paths (the
        /// determinism contract).
        payload: String,
    },
    /// Acknowledges a [`Request::Gossip`].
    GossipAck {
        /// Entries newly applied (already-present ones are skipped).
        applied: u64,
    },
    /// Service counters plus the `rfid-obs` metrics snapshot.
    Stats {
        /// The service counters.
        stats: ServiceStats,
        /// `MetricsSnapshot::to_json` of the server's recorder
        /// (deterministic: wall times excluded).
        metrics: String,
    },
    /// A structured application error (`code` is one of the `CODE_*`
    /// constants).
    Error {
        /// HTTP-flavoured status code.
        code: u16,
        /// Human-readable cause.
        message: String,
    },
    /// Acknowledges a [`Request::Shutdown`].
    Bye,
}

/// Point-in-time service counters, serialisable for the stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Schedule requests admitted for processing (hits + queued).
    pub requests: u64,
    /// Requests answered straight from the cache.
    pub cache_hits: u64,
    /// Requests that missed the cache.
    pub cache_misses: u64,
    /// Requests coalesced onto an identical in-flight solve
    /// (single-flight followers; neither a hit nor a miss).
    pub coalesced: u64,
    /// Cache entries evicted to make room.
    pub cache_evictions: u64,
    /// Cache entries dropped by TTL expiry.
    pub cache_expired: u64,
    /// Live cache entries.
    pub cache_entries: u64,
    /// Requests rejected because the queue was full (`429`).
    pub rejected_full: u64,
    /// Requests rejected during shutdown (`503`).
    pub rejected_shutdown: u64,
    /// Requests whose deadline expired while queued or solving (`504`).
    pub deadline_expired: u64,
    /// Jobs solved by the worker pool (cache misses that completed).
    pub solved: u64,
    /// Jobs that ended in an error (bad workload, stall, panic).
    pub errors: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Cache entries recovered from the journal/snapshot at startup
    /// (`0` on a cold start — the warm/cold discriminator).
    pub recovered_entries: u64,
    /// Journal records appended durably.
    pub journal_appends: u64,
    /// Journal appends that failed (entry stayed RAM-only).
    pub journal_append_errors: u64,
    /// Compaction snapshots written.
    pub snapshots_written: u64,
    /// Cache entries handed to the replicator for peer push.
    pub replicated_out: u64,
    /// Entries the replicator dropped (peer queue overflow) or gave up
    /// on after bounded retries.
    pub replication_dropped: u64,
    /// Gossiped entries applied from peers.
    pub replicated_in: u64,
    /// Full, delta and key requests whose `request_id` was already seen
    /// (failover retries of an idempotent request).
    pub deduped: u64,
}

/// Serialises one frame as a JSON line (no flush — callers batch).
pub fn encode_frame<T: Serialize>(frame: &T) -> String {
    let mut line = serde_json::to_string(frame).expect("frame serialisation cannot fail");
    line.push('\n');
    line
}

/// Parses one frame from a line (ignores the trailing newline).
pub fn decode_frame<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line.trim_end_matches(['\r', '\n'])).map_err(|e| e.to_string())
}

/// What one read of the frame stream produced. Distinguishing a clean
/// EOF from a connection severed **mid-frame** is what lets clients turn
/// an abrupt peer death into a structured, retryable error instead of a
/// raw I/O failure.
#[derive(Debug, PartialEq)]
pub enum FrameRead<T> {
    /// A complete, well-formed frame.
    Frame(T),
    /// A complete line that did not parse (answer with
    /// [`CODE_BAD_REQUEST`]).
    Malformed(String),
    /// Clean EOF on a frame boundary.
    Eof,
    /// The peer vanished mid-frame: bytes arrived but the line never
    /// terminated before EOF.
    SeveredMidFrame {
        /// Bytes of the partial frame that did arrive.
        partial_bytes: usize,
    },
}

/// Reads one newline-terminated frame from a buffered reader,
/// classifying clean EOF vs a connection severed mid-frame. I/O errors
/// (timeouts, resets) stay `Err` for the caller to map.
pub fn read_frame<T: Deserialize, R: BufRead>(r: &mut R) -> std::io::Result<FrameRead<T>> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Ok(FrameRead::Eof);
    }
    if !line.ends_with('\n') {
        return Ok(FrameRead::SeveredMidFrame {
            partial_bytes: line.len(),
        });
    }
    Ok(match decode_frame(&line) {
        Ok(frame) => FrameRead::Frame(frame),
        Err(m) => FrameRead::Malformed(m),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Workload;
    use rfid_model::Scenario;

    fn job() -> JobSpec {
        JobSpec::new(Workload::Generated {
            scenario: Scenario::paper_evaluation(14.0, 6.0),
            seed: 1,
        })
    }

    #[test]
    fn request_frames_round_trip() {
        for frame in [
            Request::Hello {
                v: PROTOCOL_VERSION,
            },
            Request::Schedule {
                job: job(),
                deadline_ms: Some(250),
                request_id: Some("client-1-7".into()),
                v: Some(PROTOCOL_VERSION),
            },
            Request::Delta {
                base: "00000000000000ff".into(),
                ops: vec![
                    ScenarioDelta::AddTag { x: 1.0, y: 2.0 },
                    ScenarioDelta::SetReaderAlive {
                        reader: 3,
                        alive: false,
                    },
                ],
                deadline_ms: None,
                request_id: Some("client-2-1".into()),
                v: Some(PROTOCOL_VERSION),
            },
            Request::Key {
                key: "00000000000000ff".into(),
                ops: None,
                request_id: None,
                v: Some(PROTOCOL_VERSION),
            },
            Request::Key {
                key: "00000000000000ff".into(),
                ops: Some(vec![ScenarioDelta::AddTag { x: 1.0, y: 2.0 }]),
                request_id: Some("client-3-9".into()),
                v: Some(PROTOCOL_VERSION),
            },
            Request::Gossip {
                entries: vec![GossipEntry {
                    key: "00ff".into(),
                    payload: r#"{"slots":3}"#.into(),
                }],
                v: Some(PROTOCOL_VERSION),
            },
            Request::Stats,
            Request::Shutdown,
        ] {
            let line = encode_frame(&frame);
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "one frame per line");
            let back: Request = decode_frame(&line).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn pre_failover_schedule_frames_still_parse() {
        // A v1 frame from an older peer: no request_id, no v field.
        let line = r#"{"Schedule":{"job":null,"deadline_ms":null}}"#
            .replace("null,", "JOB,")
            .replace("JOB", &serde_json::to_string(&job()).unwrap());
        let back: Request = decode_frame(&line).unwrap();
        match back {
            Request::Schedule { request_id, v, .. } => {
                assert_eq!(request_id, None);
                assert_eq!(v, None, "absent version parses as v1");
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn version_gate_accepts_current_and_older_rejects_newer() {
        assert_eq!(version_gate(None), None);
        assert_eq!(version_gate(Some(1)), None);
        assert_eq!(version_gate(Some(PROTOCOL_VERSION)), None);
        match version_gate(Some(PROTOCOL_VERSION + 1)) {
            Some(Response::Error { code, message }) => {
                assert_eq!(code, CODE_UPGRADE_REQUIRED);
                assert!(message.contains(&format!("v{PROTOCOL_VERSION}")));
            }
            other => panic!("expected 426 error frame, got {other:?}"),
        }
    }

    #[test]
    fn response_frames_round_trip() {
        for frame in [
            Response::HelloAck {
                v: PROTOCOL_VERSION,
            },
            Response::Schedule {
                key: "00ff".into(),
                cached: true,
                payload: r#"{"slots":3}"#.into(),
            },
            Response::GossipAck { applied: 2 },
            Response::Stats {
                stats: ServiceStats {
                    requests: 7,
                    recovered_entries: 3,
                    ..ServiceStats::default()
                },
                metrics: "{}".into(),
            },
            Response::Error {
                code: CODE_QUEUE_FULL,
                message: "queue full".into(),
            },
            Response::Bye,
        ] {
            let back: Response = decode_frame(&encode_frame(&frame)).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn read_frame_handles_stream_of_lines_and_eof() {
        let text = format!(
            "{}{}",
            encode_frame(&Request::Stats),
            encode_frame(&Request::Shutdown)
        );
        let mut r = std::io::BufReader::new(text.as_bytes());
        assert_eq!(
            read_frame::<Request, _>(&mut r).unwrap(),
            FrameRead::Frame(Request::Stats)
        );
        assert_eq!(
            read_frame::<Request, _>(&mut r).unwrap(),
            FrameRead::Frame(Request::Shutdown)
        );
        assert_eq!(read_frame::<Request, _>(&mut r).unwrap(), FrameRead::Eof);
    }

    #[test]
    fn severed_mid_frame_is_distinguished_from_clean_eof() {
        let full = encode_frame(&Request::Stats);
        let cut = &full.as_bytes()[..full.len() - 3]; // no newline
        let mut r = std::io::BufReader::new(cut);
        match read_frame::<Request, _>(&mut r).unwrap() {
            FrameRead::SeveredMidFrame { partial_bytes } => {
                assert_eq!(partial_bytes, full.len() - 3)
            }
            other => panic!("expected SeveredMidFrame, got {other:?}"),
        }
    }

    #[test]
    fn garbage_lines_are_parse_errors_not_panics() {
        let mut r = std::io::BufReader::new(&b"not json\n"[..]);
        match read_frame::<Request, _>(&mut r).unwrap() {
            FrameRead::Malformed(_) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
