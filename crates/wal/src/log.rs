//! The log: append-only frames over a [`LogFile`], and the durability
//! [`Barrier`] that syncs them.
//!
//! The two are split so that a commit can append under the writer lock
//! and wait for durability outside it (see `durable.rs`, where the
//! [`FsyncPolicy`] is applied). [`Wal`] only appends: it tracks
//! `good_len` — the byte length of the last fully appended frame. A
//! failed append (IO error, injected fault, torn write) never advances
//! it, so [`Wal::repair`] can always cut the file back to the last good
//! frame boundary and resume. [`Barrier`] only syncs, through a second
//! handle on the same file.

use std::io;

use crate::frame::{encode_frame, FILE_HEADER};
use crate::io::{LogFile, Storage};

/// When appended frames are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// A commit is acknowledged only once a barrier covers its frames: a
    /// committed operation survives any crash. Concurrent commits share
    /// barriers.
    Always,
    /// Group commit: a barrier at least once per `n` appends (and on
    /// checkpoint/close). A crash can lose up to `n − 1` acknowledged
    /// operations — but never corrupt the log.
    GroupCommit(
        /// Appends per fsync; clamped to at least 1.
        usize,
    ),
    /// Never fsync (except on checkpoint/close). Durability is whatever
    /// the OS page cache provides; the log still tears cleanly.
    Never,
}

/// A rejected [`FsyncPolicy`] spelling, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// The offending input.
    pub input: String,
    /// Why it was rejected.
    pub reason: String,
}

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid fsync policy {:?}: {} (expected `always`, `never`, or `group:<n>` with n ≥ 1)",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FsyncPolicy {
    /// Parses a policy from its status/CLI spelling: `always`, `never`, or
    /// `group:<n>` with `n ≥ 1`.
    ///
    /// `group:0` is a hard error, not a silent clamp: group commit with a
    /// zero batch has no meaning, and coercing it to `group:1` would
    /// quietly strengthen durability semantics behind a typo'd config.
    ///
    /// # Errors
    ///
    /// [`ParsePolicyError`] naming the input and the reason.
    pub fn parse(text: &str) -> Result<FsyncPolicy, ParsePolicyError> {
        let err = |reason: &str| ParsePolicyError {
            input: text.to_string(),
            reason: reason.to_string(),
        };
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => {
                let n_text = other
                    .strip_prefix("group:")
                    .ok_or_else(|| err("unknown policy"))?;
                let n: usize = n_text
                    .parse()
                    .map_err(|_| err("the group size is not a number"))?;
                if n == 0 {
                    return Err(err("a group of 0 appends can never commit"));
                }
                Ok(FsyncPolicy::GroupCommit(n))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::GroupCommit(n) => write!(f, "group:{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// An open write-ahead log: appends frames through its own handle. It
/// never syncs a frame; a second handle, synced outside the writer lock,
/// does.
pub struct Wal {
    file: Box<dyn LogFile>,
    /// Length of the valid frame prefix — the repair truncation point.
    good_len: u64,
    /// Sequence number the next frame will carry.
    next_seq: u64,
}

impl Wal {
    /// Creates a fresh, empty log file `name` in `storage` (truncating any
    /// existing content) and syncs the header.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn create(storage: &dyn Storage, name: &str) -> io::Result<Wal> {
        let mut file = storage.open(name)?;
        file.truncate(0)?;
        file.append(FILE_HEADER)?;
        file.sync()?;
        Ok(Wal {
            file,
            good_len: FILE_HEADER.len() as u64,
            next_seq: 0,
        })
    }

    /// Adopts an already scanned log: `valid_len` and `next_seq` come from
    /// [`crate::frame::scan`]. Any bytes past `valid_len` (a repaired torn
    /// tail) are truncated away and the truncation synced.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn open_scanned(
        mut file: Box<dyn LogFile>,
        valid_len: u64,
        next_seq: u64,
    ) -> io::Result<Wal> {
        if file.len()? != valid_len {
            file.truncate(valid_len)?;
            file.sync()?;
        }
        Ok(Wal {
            file,
            good_len: valid_len,
            next_seq,
        })
    }

    /// Appends one record payload as the next frame, without syncing it.
    ///
    /// # Errors
    ///
    /// On any error the frame is *not* committed: `good_len` is unchanged
    /// and the file may carry torn trailing bytes until [`Self::repair`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let frame = encode_frame(self.next_seq, payload);
        let sw = tempora_obs::Stopwatch::start();
        self.file.append(&frame)?;
        sw.record(&tempora_obs::histogram("tempora_wal_append_seconds"));
        self.good_len += frame.len() as u64;
        self.next_seq += 1;
        tempora_obs::counter("tempora_wal_appends_total").inc();
        tempora_obs::counter("tempora_wal_appended_bytes_total").add(frame.len() as u64);
        Ok(())
    }

    /// Truncates the file back to the last good frame boundary, discarding
    /// any torn bytes a failed append left behind.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn repair(&mut self) -> io::Result<()> {
        if self.file.len()? != self.good_len {
            self.file.truncate(self.good_len)?;
            self.file.sync()?;
        }
        Ok(())
    }

    /// Length of the valid frame prefix, in bytes.
    #[must_use]
    pub fn good_len(&self) -> u64 {
        self.good_len
    }

    /// Sequence number the next appended frame will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("good_len", &self.good_len)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// The durability barrier: a second handle on the log file, opened with
/// [`Storage::open`], so that one writer can sync it while others keep
/// appending through the [`Wal`]'s handle.
///
/// This relies on `fdatasync` flushing the *file* (on Linux, the inode's
/// dirty pages and size), not the bytes one descriptor wrote: a sync
/// through this handle covers every append that returned before it began.
pub(crate) struct Barrier {
    file: Box<dyn LogFile>,
}

impl Barrier {
    /// Opens the barrier handle on log file `name`.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub(crate) fn open(storage: &dyn Storage, name: &str) -> io::Result<Barrier> {
        Ok(Barrier {
            file: storage.open(name)?,
        })
    }

    /// Forces every byte appended to the log so far to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        let sw = tempora_obs::Stopwatch::start();
        self.file.sync()?;
        sw.record(&tempora_obs::histogram("tempora_wal_fsync_seconds"));
        tempora_obs::counter("tempora_wal_fsyncs_total").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{scan, ScanStop};
    use crate::io::{AppendFault, FaultPlan, FaultStorage, MemStorage};
    use std::sync::Arc;

    #[test]
    fn log_scans_back_cleanly() {
        let storage = MemStorage::new();
        let mut wal = Wal::create(&storage, "wal").unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        let bytes = storage.read("wal").unwrap().unwrap();
        let scanned = scan(&bytes).unwrap();
        assert!(scanned.stop.is_none());
        assert_eq!(scanned.frames.len(), 2);
        assert_eq!(scanned.frames[1].payload, b"second");
        assert_eq!(scanned.valid_len(), wal.good_len());
    }

    #[test]
    fn torn_append_repairs_to_last_good_frame() {
        let plan = FaultPlan::new();
        plan.fail_append(2, AppendFault::Short(7)); // third append tears
        let mem = MemStorage::new();
        let storage = FaultStorage::new(Arc::new(mem.clone()), Arc::clone(&plan));
        let mut wal = Wal::create(&storage, "wal").unwrap();
        wal.append(b"one").unwrap();
        let good = wal.good_len();
        let err = wal.append(b"two").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert_eq!(wal.good_len(), good, "failed append must not commit");
        // The torn bytes are on disk until repair.
        assert!(mem.read("wal").unwrap().unwrap().len() as u64 > good);
        wal.repair().unwrap();
        assert_eq!(mem.read("wal").unwrap().unwrap().len() as u64, good);
        // And the log keeps working after repair.
        wal.append(b"three").unwrap();
        let scanned = scan(&mem.read("wal").unwrap().unwrap()).unwrap();
        assert!(scanned.stop.is_none());
        assert_eq!(scanned.frames.len(), 2);
        assert_eq!(scanned.frames[1].payload, b"three");
    }

    #[test]
    fn open_scanned_resumes_sequence_and_truncates_tail() {
        let storage = MemStorage::new();
        let mut wal = Wal::create(&storage, "wal").unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        drop(wal);
        // Simulate a crash that tore a third frame.
        let mut bytes = storage.read("wal").unwrap().unwrap();
        bytes.extend_from_slice(b"TWFRgarbage");
        let mem = storage.snapshot();
        let storage = MemStorage::from_files(
            mem.into_iter()
                .map(|(k, v)| if k == "wal" { (k, bytes.clone()) } else { (k, v) })
                .collect(),
        );
        let scanned = scan(&storage.read("wal").unwrap().unwrap()).unwrap();
        assert!(matches!(scanned.stop, Some(ScanStop::TornTail { .. })));
        let mut wal = Wal::open_scanned(
            storage.open("wal").unwrap(),
            scanned.valid_len(),
            scanned.frames.len() as u64,
        )
        .unwrap();
        assert_eq!(wal.next_seq(), 2);
        wal.append(b"gamma").unwrap();
        let rescanned = scan(&storage.read("wal").unwrap().unwrap()).unwrap();
        assert!(rescanned.stop.is_none());
        assert_eq!(rescanned.frames.len(), 3);
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("group:8"), Ok(FsyncPolicy::GroupCommit(8)));
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("group:x").is_err());
        for p in [FsyncPolicy::Always, FsyncPolicy::Never, FsyncPolicy::GroupCommit(4)] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Ok(p));
        }
    }

    /// Regression: `group:0` used to be silently coerced to `group:1`,
    /// changing durability semantics behind a typo. It must be a loud
    /// parse error naming the input.
    #[test]
    fn group_zero_is_a_parse_error_not_a_coercion() {
        let err = FsyncPolicy::parse("group:0").expect_err("group:0 must not parse");
        assert_eq!(err.input, "group:0");
        let msg = err.to_string();
        assert!(msg.contains("group:0"), "{msg}");
        assert!(msg.contains("n ≥ 1"), "{msg}");
    }
}
