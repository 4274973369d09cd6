//! Injectable storage: the seam the chaos harness drives.
//!
//! The durability layer ([`crate::journal`]) never touches the
//! filesystem directly — it goes through the [`Storage`] trait, whose
//! three calls are all the one journal file needs: read it at recovery,
//! append a record, and replace it whole when compaction or repair
//! rewrites it. Production uses [`DiskStorage`] (a directory of flat
//! files, atomic replace via temp-file + fsync + rename). Chaos tests
//! swap in a [`FaultyStorage`] whose seeded [`StorageFaults`] plan can
//! tear an append mid-record (the `kill -9` mid-write schedule), deny
//! I/O with a seeded probability, or crash-stop the "process" so every
//! later operation fails — all reproducible from the seed, in the spirit
//! of `rfid_netsim::FaultPlan`.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The small filesystem surface the durability layer needs. File names
/// are flat (no separators); implementations scope them to one root.
pub trait Storage: Send + Sync {
    /// Reads a whole file. Missing files are `ErrorKind::NotFound`.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Appends `bytes` to the end of a file, creating it if missing.
    /// One call is the durability unit: a torn append may persist any
    /// prefix of `bytes`, never interleave with another append.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Atomically replaces a file's contents (temp file + rename): after
    /// a crash the file holds either the old bytes or the new, never a
    /// mix.
    fn replace(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
}

/// Production [`Storage`]: flat files under one root directory.
pub struct DiskStorage {
    root: PathBuf,
}

impl DiskStorage {
    /// Opens (creating if needed) the root directory.
    pub fn open(root: impl AsRef<Path>) -> io::Result<DiskStorage> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStorage { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for DiskStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        std::fs::File::open(self.path(name))?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(bytes)?;
        f.flush()
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.path(name))
    }
}

/// A seeded plan of storage misbehaviour (the service-layer analogue of
/// `rfid_netsim::FaultPlan`): pure data, so the same plan replays the
/// same fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageFaults {
    seed: u64,
    /// 1-based index of the append call to tear; that append persists a
    /// seeded prefix of its bytes and the storage crash-stops.
    torn_append: Option<u64>,
    /// Probability that any append is denied with an I/O error (the
    /// entry is lost but the "process" survives).
    deny_append: f64,
    /// Deny every read (recovery sees a dead disk).
    deny_reads: bool,
}

impl StorageFaults {
    /// The fault-free plan.
    pub fn none() -> Self {
        StorageFaults::seeded(0)
    }

    /// An empty plan carrying a seed for whatever faults get added.
    pub fn seeded(seed: u64) -> Self {
        StorageFaults {
            seed,
            torn_append: None,
            deny_append: 0.0,
            deny_reads: false,
        }
    }

    /// Tears the `n`-th append (1-based): a seeded prefix of its bytes
    /// persists, then the storage crash-stops — every later operation
    /// fails, exactly as after `kill -9` mid-write.
    pub fn with_torn_append(mut self, n: u64) -> Self {
        assert!(n >= 1, "append indices are 1-based");
        self.torn_append = Some(n);
        self
    }

    /// Denies each append independently with probability `p`.
    pub fn with_deny_append(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.deny_append = p;
        self
    }

    /// Denies every read.
    pub fn with_deny_reads(mut self) -> Self {
        self.deny_reads = true;
        self
    }
}

/// [`Storage`] decorator applying a [`StorageFaults`] plan to an inner
/// store. Chaos/unit-test support — deliberately `pub` so the workspace
/// harness (`tests/serve_chaos.rs`) can drive it.
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    plan: StorageFaults,
    rng: Mutex<u64>,
    appends: AtomicU64,
    crashed: AtomicBool,
}

impl FaultyStorage {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Arc<dyn Storage>, plan: StorageFaults) -> FaultyStorage {
        FaultyStorage {
            inner,
            rng: Mutex::new(plan.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1)),
            plan,
            appends: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        }
    }

    /// `true` once the plan has crash-stopped this storage.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// xorshift64* — deterministic, dependency-free.
    fn next_u64(&self) -> u64 {
        let mut s = self.rng.lock().expect("rng poisoned");
        let mut x = *s;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *s = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.is_crashed() {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "storage crash-stopped by fault plan",
            ))
        } else {
            Ok(())
        }
    }
}

impl Storage for FaultyStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        if self.plan.deny_reads {
            return Err(io::Error::other("read denied by fault plan"));
        }
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        let n = self.appends.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.torn_append == Some(n) {
            // Persist a seeded strict prefix, then die mid-write.
            let keep = (self.next_u64() as usize) % bytes.len().max(1);
            let _ = self.inner.append(name, &bytes[..keep]);
            self.crashed.store(true, Ordering::SeqCst);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "append torn by fault plan (simulated kill -9 mid-write)",
            ));
        }
        if self.plan.deny_append > 0.0 {
            let draw = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if draw < self.plan.deny_append {
                return Err(io::Error::other("append denied by fault plan"));
            }
        }
        self.inner.append(name, bytes)
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        self.inner.replace(name, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rfid_storage_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_round_trip_append_and_replace() {
        let root = tmp_root("disk");
        let s = DiskStorage::open(&root).unwrap();
        assert_eq!(
            s.read("j").unwrap_err().kind(),
            io::ErrorKind::NotFound,
            "missing file is NotFound"
        );
        s.append("j", b"one\n").unwrap();
        s.append("j", b"two\n").unwrap();
        assert_eq!(s.read("j").unwrap(), b"one\ntwo\n");
        s.replace("j", b"fresh\n").unwrap();
        assert_eq!(s.read("j").unwrap(), b"fresh\n");
        s.replace("j", b"").unwrap();
        assert_eq!(s.read("j").unwrap(), b"");
        // The rename consumed the temp file: the root holds `j` alone.
        let names: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec!["j"]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_append_persists_a_strict_prefix_then_crash_stops() {
        let root = tmp_root("torn");
        let disk: Arc<dyn Storage> = Arc::new(DiskStorage::open(&root).unwrap());
        let s = FaultyStorage::new(
            Arc::clone(&disk),
            StorageFaults::seeded(7).with_torn_append(2),
        );
        s.append("j", b"record-one\n").unwrap();
        let err = s.append("j", b"record-two\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(s.is_crashed());
        // Everything after the crash fails.
        assert!(s.read("j").is_err());
        assert!(s.append("j", b"x").is_err());
        assert!(s.replace("j", b"x").is_err());
        // The underlying bytes: the full first record plus a strict
        // prefix of the second.
        let bytes = disk.read("j").unwrap();
        assert!(bytes.starts_with(b"record-one\n"));
        assert!(bytes.len() < b"record-one\nrecord-two\n".len());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn same_seed_tears_at_the_same_offset() {
        let lens: Vec<usize> = (0..2)
            .map(|_| {
                let root = tmp_root("seeded");
                let disk: Arc<dyn Storage> = Arc::new(DiskStorage::open(&root).unwrap());
                let s = FaultyStorage::new(
                    Arc::clone(&disk),
                    StorageFaults::seeded(42).with_torn_append(1),
                );
                let _ = s.append("j", b"0123456789abcdef\n");
                let n = disk.read("j").unwrap().len();
                std::fs::remove_dir_all(&root).ok();
                n
            })
            .collect();
        assert_eq!(lens[0], lens[1], "fault schedule must be reproducible");
    }

    #[test]
    fn deny_reads_and_deny_append_fail_without_crashing() {
        let root = tmp_root("deny");
        let disk: Arc<dyn Storage> = Arc::new(DiskStorage::open(&root).unwrap());
        let s = FaultyStorage::new(
            Arc::clone(&disk),
            StorageFaults::seeded(3)
                .with_deny_reads()
                .with_deny_append(1.0),
        );
        assert!(s.read("j").is_err());
        assert!(s.append("j", b"x\n").is_err());
        assert!(!s.is_crashed(), "denied I/O is not a crash");
        // Replace still works: the plan only denies reads/appends.
        s.replace("j", b"ok").unwrap();
        assert_eq!(disk.read("j").unwrap(), b"ok");
        std::fs::remove_dir_all(&root).ok();
    }
}
