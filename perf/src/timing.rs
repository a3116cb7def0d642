//! A timing [`Storage`]/[`LogFile`] wrapper, owned by the benchmark.
//!
//! It passes every byte through to the wrapped storage unchanged and, on
//! the way, counts appends, appended bytes, syncs, atomic writes and reads,
//! and opens a span around each call. Because the WAL calls these traits
//! from inside a durable write, the spans nest under the benchmark's write
//! span on the same thread. The counts are cross-checked against the
//! registry's own WAL counters, so a benchmark row and a production
//! counter are shown to read the same events.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tempora::obs::MetricsSnapshot;
use tempora::wal::{LogFile, Storage};

use crate::trace::Tracer;

/// Counters shared by every storage and file the wrapper hands out.
#[derive(Debug, Default)]
pub struct WalCounts {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    syncs: AtomicU64,
    atomic_writes: AtomicU64,
    atomic_write_bytes: AtomicU64,
    read_ns: AtomicU64,
}

/// A point-in-time copy of [`WalCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalTally {
    /// `LogFile::append` calls.
    pub appends: u64,
    /// Bytes passed to `append`.
    pub append_bytes: u64,
    /// `LogFile::sync` calls.
    pub syncs: u64,
    /// `Storage::write_atomic` calls.
    pub atomic_writes: u64,
    /// Bytes passed to `write_atomic`.
    pub atomic_write_bytes: u64,
    /// Nanoseconds spent in `Storage::read`.
    pub read_ns: u64,
}

impl WalTally {
    /// The counts accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &WalTally) -> WalTally {
        WalTally {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            syncs: self.syncs - earlier.syncs,
            atomic_writes: self.atomic_writes - earlier.atomic_writes,
            atomic_write_bytes: self.atomic_write_bytes - earlier.atomic_write_bytes,
            read_ns: self.read_ns - earlier.read_ns,
        }
    }

    /// Adds another tally to this one.
    pub fn add(&mut self, other: &WalTally) {
        self.appends += other.appends;
        self.append_bytes += other.append_bytes;
        self.syncs += other.syncs;
        self.atomic_writes += other.atomic_writes;
        self.atomic_write_bytes += other.atomic_write_bytes;
        self.read_ns += other.read_ns;
    }
}

impl WalCounts {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Arc<WalCounts> {
        Arc::new(WalCounts::default())
    }

    /// The current counts.
    #[must_use]
    pub fn tally(&self) -> WalTally {
        WalTally {
            appends: self.appends.load(Ordering::SeqCst),
            append_bytes: self.append_bytes.load(Ordering::SeqCst),
            syncs: self.syncs.load(Ordering::SeqCst),
            atomic_writes: self.atomic_writes.load(Ordering::SeqCst),
            atomic_write_bytes: self.atomic_write_bytes.load(Ordering::SeqCst),
            read_ns: self.read_ns.load(Ordering::SeqCst),
        }
    }
}

/// Wraps any [`Storage`], timing and counting every call.
pub struct TimingStorage {
    inner: Arc<dyn Storage>,
    tracer: Arc<Tracer>,
    counts: Arc<WalCounts>,
}

impl TimingStorage {
    /// Wraps `inner`; spans go to `tracer`, counts to `counts`.
    #[must_use]
    pub fn new(inner: Arc<dyn Storage>, tracer: Arc<Tracer>, counts: Arc<WalCounts>) -> Self {
        TimingStorage {
            inner,
            tracer,
            counts,
        }
    }
}

struct TimingFile {
    inner: Box<dyn LogFile>,
    tracer: Arc<Tracer>,
    counts: Arc<WalCounts>,
}

impl LogFile for TimingFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let _span = self.tracer.child("wal.append");
        self.inner.append(bytes)?;
        self.counts.appends.fetch_add(1, Ordering::SeqCst);
        self.counts
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let _span = self.tracer.child("wal.fsync");
        self.inner.sync()?;
        self.counts.syncs.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

impl Storage for TimingStorage {
    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        Ok(Box::new(TimingFile {
            inner: self.inner.open(name)?,
            tracer: Arc::clone(&self.tracer),
            counts: Arc::clone(&self.counts),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let _span = self.tracer.child("wal.read");
        let from = Instant::now();
        let bytes = self.inner.read(name);
        self.counts.read_ns.fetch_add(
            u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::SeqCst,
        );
        bytes
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let _span = self.tracer.child("wal.write_atomic");
        self.inner.write_atomic(name, bytes)?;
        self.counts.atomic_writes.fetch_add(1, Ordering::SeqCst);
        self.counts
            .atomic_write_bytes
            .fetch_add(bytes.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// The registry's WAL counters, read at one instant.
#[derive(Debug, Clone, Copy)]
struct RegistryWal {
    /// `tempora_wal_appends_total`.
    appends: u64,
    /// `tempora_wal_appended_bytes_total`.
    append_bytes: u64,
    /// `tempora_wal_fsyncs_total`.
    fsyncs: u64,
}

impl RegistryWal {
    fn read(snap: &MetricsSnapshot) -> RegistryWal {
        RegistryWal {
            appends: snap.counter_total("tempora_wal_appends_total"),
            append_bytes: snap.counter_total("tempora_wal_appended_bytes_total"),
            fsyncs: snap.counter_total("tempora_wal_fsyncs_total"),
        }
    }
}

/// One measurement window over which the wrapper and the registry must
/// agree: both are read at its start and its end.
#[derive(Debug)]
pub struct Window {
    tally: WalTally,
    registry: RegistryWal,
}

impl Window {
    /// Opens a window now.
    #[must_use]
    pub fn open(counts: &WalCounts) -> Window {
        Window {
            tally: counts.tally(),
            registry: RegistryWal::read(&tempora::obs::snapshot()),
        }
    }

    /// Closes the window: returns the wrapper's counts over it, or a
    /// message naming every count on which the registry disagrees.
    ///
    /// # Errors
    ///
    /// The disagreement, when the registry deltas differ from the
    /// wrapper's counts.
    pub fn close(self, counts: &WalCounts) -> Result<WalTally, String> {
        let tally = counts.tally().since(&self.tally);
        let now = RegistryWal::read(&tempora::obs::snapshot());
        let pairs = [
            (
                "appends",
                tally.appends,
                now.appends - self.registry.appends,
            ),
            (
                "appended bytes",
                tally.append_bytes,
                now.append_bytes - self.registry.append_bytes,
            ),
            ("fsyncs", tally.syncs, now.fsyncs - self.registry.fsyncs),
        ];
        let diffs: Vec<String> = pairs
            .iter()
            .filter(|(_, ours, theirs)| ours != theirs)
            .map(|(what, ours, theirs)| format!("{what}: wrapper {ours}, registry {theirs}"))
            .collect();
        if diffs.is_empty() {
            Ok(tally)
        } else {
            Err(diffs.join("; "))
        }
    }
}
