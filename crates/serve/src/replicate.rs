//! Cache replication: push-only gossip between peer daemons.
//!
//! [`Replicator`] offers every payload a daemon publishes to its cache
//! to one bounded queue per configured peer, and a per-peer thread
//! delivers the entries as [`Request::Gossip`] frames through a
//! [`TcpClient::failover`] client over that one peer (bounded attempts
//! with backoff, reconnecting as needed). Peers apply entries
//! idempotently and never re-gossip them, so there are no flooding
//! loops; with every daemon configured to push to every other, the
//! fleet's caches converge. Replication is strictly best-effort: a
//! partitioned or dead peer costs dropped-entry counters, never request
//! latency — the next cache miss on that peer simply re-solves, and
//! content addressing guarantees it re-derives the identical bytes.
//!
//! [`Request::Gossip`]: crate::protocol::Request::Gossip

use crate::client::{FailoverPolicy, TcpClient};
use crate::protocol::GossipEntry;
use crate::queue::WorkQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-peer queue capacity. Overflow drops the oldest-offered entries
/// first in spirit (we drop the *new* entry and count it — the cache is
/// the source of truth, so drops are always recoverable by a re-solve).
const PEER_QUEUE_CAP: usize = 1024;
/// Delivery of one entry before it is dropped: 3 attempts, with a
/// 20 ms backoff that doubles per retry (the attempt bound caps it).
const DELIVERY: FailoverPolicy = FailoverPolicy {
    attempts: 3,
    backoff: Duration::from_millis(20),
    max_backoff: Duration::MAX,
};

struct Peer {
    queue: Arc<WorkQueue<GossipEntry>>,
    handle: JoinHandle<()>,
}

/// Push-only gossip fan-out to a fixed peer list.
pub struct Replicator {
    peers: Vec<Peer>,
    offered: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Replicator {
    /// Starts one delivery thread per peer address.
    pub fn start(addrs: &[String]) -> Replicator {
        let offered = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let peers = addrs
            .iter()
            .map(|addr| {
                let queue = Arc::new(WorkQueue::new(PEER_QUEUE_CAP));
                let thread_queue = Arc::clone(&queue);
                let thread_dropped = Arc::clone(&dropped);
                let addr = addr.clone();
                let handle = std::thread::Builder::new()
                    .name("serve-gossip".into())
                    .spawn(move || peer_loop(&addr, &thread_queue, &thread_dropped))
                    .expect("spawn gossip thread");
                Peer { queue, handle }
            })
            .collect();
        Replicator {
            peers,
            offered,
            dropped,
        }
    }

    /// `true` when no peers are configured (gossip disabled).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Offers one cache entry to every peer queue. Never blocks: a full
    /// queue (peer down or slow) drops the entry for that peer and
    /// counts it.
    pub fn offer(&self, key_hex: &str, payload: &str) {
        for peer in &self.peers {
            let entry = GossipEntry {
                key: key_hex.to_string(),
                payload: payload.to_string(),
            };
            match peer.queue.try_push(entry) {
                Ok(()) => {
                    self.offered.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Entries handed to peer queues so far.
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Entries dropped: queue overflow plus delivery give-ups.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Closes the peer queues (pending entries are still delivered) and
    /// joins the delivery threads.
    pub fn shutdown(self) {
        for peer in &self.peers {
            peer.queue.close();
        }
        for peer in self.peers {
            let _ = peer.handle.join();
        }
    }
}

/// Delivers queued entries to one peer, reconnecting as needed. Entries
/// whose delivery keeps failing are dropped (and counted) so a dead peer
/// never wedges the queue.
fn peer_loop(addr: &str, queue: &WorkQueue<GossipEntry>, dropped: &AtomicU64) {
    let mut client = TcpClient::failover(vec![addr.to_string()], DELIVERY);
    while let Some(entry) = queue.pop() {
        if client.gossip(std::slice::from_ref(&entry)).is_err() {
            dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicator_drops_entries_for_an_unreachable_peer() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let repl = Replicator::start(&[dead]);
        repl.offer("00ff", r#"{"slots":1}"#);
        assert_eq!(repl.offered(), 1);
        repl.shutdown(); // drains: delivery fails after bounded retries
    }
}
