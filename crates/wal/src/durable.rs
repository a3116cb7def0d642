//! A [`Database`] wrapped in the durability protocol: every committed
//! operation is appended to the WAL before the call returns, checkpoints
//! compact the log into a dump-format snapshot, and
//! [`DurableDatabase::open`] recovers the pair after any crash.
//!
//! ## On-storage layout
//!
//! Two files per *epoch* `e`: `checkpoint.<e>` (a `TEMPORA DUMP v1`
//! snapshot, written atomically) and `wal.<e>` (frames for operations
//! committed after that snapshot). [`DurableDatabase::checkpoint`] bumps
//! the epoch: it writes `checkpoint.<e+1>`, starts a fresh `wal.<e+1>`,
//! and then removes the old epoch's files best-effort. Recovery picks the
//! highest epoch present, so a crash *anywhere* in that sequence loses
//! nothing — the new checkpoint already contains everything the old pair
//! did.
//!
//! ## Commit: leader/follower group commit
//!
//! Every write goes through one commit path in two steps:
//!
//! 1. Under the writer lock: apply to the in-memory database, encode, and
//!    append the frames — no fsync. Each appended frame gets a log
//!    sequence number (LSN) from a count that keeps increasing across
//!    epochs; the highest one is published in an atomic.
//! 2. Release the lock, then apply the [`FsyncPolicy`]. Under `always`
//!    the commit waits until the durable LSN covers its last frame. The
//!    first waiter that finds no fsync in flight becomes the *leader*: it
//!    reads the highest appended LSN, syncs the log through a second
//!    handle (a [`Barrier`]), publishes that LSN as durable, and wakes
//!    every waiter. Waiters still uncovered elect the next leader.
//!    `group:<n>` waits only until at most `n − 1` of its own and earlier
//!    frames are uncovered, which syncs once per `n` appends;
//!    `never` does not wait.
//!
//! While one writer's fsync is in flight the next applies and appends,
//! and one barrier covers every frame appended before it began, so
//! concurrent writers share barriers. This is safe because transaction
//! time is append-only (§2): frames are stamped and appended in log order
//! under one lock, so any durable byte prefix of the log is a
//! transaction-time prefix — a rollback state — and a commit is
//! acknowledged only once the prefix holding it is durable.
//!
//! ## Degraded mode
//!
//! A write whose WAL append keeps failing (after
//! [`DurabilityConfig::append_retries`] in-call retries with
//! [`DurabilityConfig::retry_backoff`] between them) parks its frame and
//! flips the database read-only: the operation stays applied in memory but
//! is *not acknowledged as durable*, and every later write is refused with
//! [`WalError::Degraded`] until [`DurableDatabase::retry`] manages to
//! flush the parked frames. A failed barrier degrades the same way and
//! answers `Degraded` to every waiter it did not cover (their frames are
//! in the log but behind no barrier); `retry` then only needs a barrier to
//! succeed. A panic under the writer lock (a contained panic in a served
//! write) also degrades the database, for good: the in-memory state may
//! have run ahead of the log, so only reopening — recovery from the log —
//! restores writability. Reads and [`DurableDatabase::status`] keep
//! working throughout.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use tempora_core::{AttrName, ElementId, ObjectId, RelationSchema, ValidTime, Value};
use tempora_design::dump::{dump, restore_into};
use tempora_design::{parse_dml, Database, DbError, DmlStatement, ExecOutcome};
use tempora_query::QueryResult;
use tempora_storage::{BatchRecord, BatchReport};
use tempora_time::{RecoveryClock, Timestamp, TransactionClock};

use crate::frame::{scan, ScanStop};
use crate::io::Storage;
use crate::log::{Barrier, FsyncPolicy, Wal};
use crate::record::WalRecord;

/// Errors from the durability layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// A storage operation failed.
    Io(io::Error),
    /// The log or checkpoint is damaged beyond safe recovery; the message
    /// names the file, frame, and byte offset.
    Corrupt(String),
    /// Replaying a logged operation did not reproduce the logged outcome —
    /// the recovery would be silently skewed, so it is refused.
    ReplayDivergence(String),
    /// The database is in read-only degraded mode; the message carries the
    /// original failure. [`DurableDatabase::retry`] restores writability,
    /// except after a panic mid-commit, which only a reopen clears.
    Degraded(String),
    /// The underlying database rejected the operation (constraint
    /// violation, parse error, unknown relation…). Nothing was logged.
    Db(DbError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
            WalError::ReplayDivergence(msg) => write!(f, "wal replay divergence: {msg}"),
            WalError::Degraded(msg) => write!(f, "database degraded to read-only: {msg}"),
            WalError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<DbError> for WalError {
    fn from(e: DbError) -> Self {
        WalError::Db(e)
    }
}

/// Tunables for the durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// When appended frames are fsynced (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// In-call append retries before a write degrades the database.
    pub append_retries: u32,
    /// Pause between those retries (transient-error backoff).
    pub retry_backoff: std::time::Duration,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            append_retries: 2,
            retry_backoff: std::time::Duration::ZERO,
        }
    }
}

impl DurabilityConfig {
    /// The default config with a different fsync policy.
    #[must_use]
    pub fn with_fsync(fsync: FsyncPolicy) -> Self {
        DurabilityConfig {
            fsync,
            ..DurabilityConfig::default()
        }
    }
}

/// What [`DurableDatabase::open`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch recovered (0 for a fresh database).
    pub epoch: u64,
    /// Whether a checkpoint snapshot was restored.
    pub checkpoint_restored: bool,
    /// WAL frames replayed on top of the checkpoint.
    pub frames_replayed: usize,
    /// Present when a torn tail was detected and truncated away.
    pub torn_tail: Option<String>,
    /// Files from superseded epochs (`checkpoint.<e>`/`wal.<e>` with
    /// `e` below the recovered epoch) deleted during recovery. A crash
    /// between a checkpoint's rename and its cleanup leaves such files
    /// behind; recovery sweeps them so the directory cannot grow one
    /// stale epoch per crash.
    pub stale_files_removed: usize,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {}: checkpoint {}, {} frame(s) replayed",
            self.epoch,
            if self.checkpoint_restored { "restored" } else { "absent" },
            self.frames_replayed
        )?;
        if let Some(torn) = &self.torn_tail {
            write!(f, "; {torn}")?;
        }
        if self.stale_files_removed > 0 {
            write!(f, "; {} stale epoch file(s) removed", self.stale_files_removed)?;
        }
        Ok(())
    }
}

/// A point-in-time view of the durability state (the REPL's `.wal`).
#[derive(Debug, Clone)]
pub struct WalStatus {
    /// Current epoch.
    pub epoch: u64,
    /// Configured fsync policy.
    pub policy: FsyncPolicy,
    /// Frames appended to the current WAL.
    pub frames: u64,
    /// Valid WAL length in bytes.
    pub bytes: u64,
    /// Appends not yet covered by an fsync.
    pub unsynced: usize,
    /// Frames parked by failed appends, awaiting [`DurableDatabase::retry`].
    pub pending: usize,
    /// The degradation reason, when read-only.
    pub degraded: Option<String>,
}

impl fmt::Display for WalStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "wal: epoch {}, fsync {}, {} frame(s), {} byte(s), {} unsynced",
            self.epoch, self.policy, self.frames, self.bytes, self.unsynced
        )?;
        match &self.degraded {
            Some(reason) => write!(
                f,
                "mode: READ-ONLY (degraded): {reason}; {} parked frame(s) — `.wal retry` to recover",
                self.pending
            ),
            None => write!(f, "mode: read-write"),
        }
    }
}

fn checkpoint_name(epoch: u64) -> String {
    format!("checkpoint.{epoch}")
}

fn wal_name(epoch: u64) -> String {
    format!("wal.{epoch}")
}

fn epoch_of(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint.")
        .or_else(|| name.strip_prefix("wal."))
        .and_then(|e| e.parse().ok())
}

/// Why writes are refused after a panic under the writer lock.
const POISONED: &str = "a write panicked mid-commit; reopen to recover from the log";

fn poisoned<T>(_: PoisonError<T>) -> WalError {
    WalError::Degraded(POISONED.to_string())
}

/// What the writer lock guards: the log's append side.
struct Writer {
    wal: Wal,
    epoch: u64,
    /// Frames whose append failed, in commit order, awaiting retry.
    pending: VecDeque<Vec<u8>>,
}

/// The durability barrier's shared state (O(1): waiters keep their own
/// LSN on their stack).
struct Commit {
    /// Every frame with an LSN at or below this is on stable storage.
    durable: u64,
    /// A leader's fsync is in flight.
    leading: bool,
    /// The degradation reason, when read-only.
    failed: Option<String>,
}

/// A [`Database`] with write-ahead logging, checkpoints, and crash
/// recovery. Read paths ([`Self::query`], [`Self::db`]) go straight to
/// the in-memory database; write paths append to the WAL before
/// acknowledging.
pub struct DurableDatabase {
    db: Database,
    clock: Arc<RecoveryClock>,
    storage: Arc<dyn Storage>,
    config: DurabilityConfig,
    writer: Mutex<Writer>,
    /// LSN of the last appended frame; bumped only under the writer lock.
    appended: AtomicU64,
    commit: Mutex<Commit>,
    /// Signalled whenever a barrier ends, durably or not.
    committed: Condvar,
    /// The second handle on the current `wal.<e>`, synced by leaders.
    barrier: Mutex<Barrier>,
}

impl DurableDatabase {
    /// Opens (or creates) the database stored in `storage`: restores the
    /// newest checkpoint, replays the WAL on a replay-phase
    /// [`RecoveryClock`] so every recovered stamp equals the original,
    /// truncates a torn tail if the last crash left one, and goes live on
    /// `inner` (the clock new transactions will follow).
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] when the checkpoint or a *non-tail* WAL frame
    /// is damaged — recovery refuses rather than silently dropping
    /// committed operations — and [`WalError::Io`] on storage failures.
    pub fn open(
        storage: Arc<dyn Storage>,
        inner: Arc<dyn TransactionClock>,
        config: DurabilityConfig,
    ) -> Result<(DurableDatabase, RecoveryReport), WalError> {
        let clock = Arc::new(RecoveryClock::new(inner));
        let db = Database::new(Arc::clone(&clock) as Arc<dyn TransactionClock>);

        let names = storage.list()?;
        let epoch = names.iter().filter_map(|n| epoch_of(n)).max().unwrap_or(0);
        let mut report = RecoveryReport {
            epoch,
            checkpoint_restored: false,
            frames_replayed: 0,
            torn_tail: None,
            stale_files_removed: 0,
        };

        if let Some(bytes) = storage.read(&checkpoint_name(epoch))? {
            let text = String::from_utf8(bytes).map_err(|_| {
                WalError::Corrupt(format!("{}: not UTF-8", checkpoint_name(epoch)))
            })?;
            restore_into(&db, &|tt| clock.set(tt), &text).map_err(|e| {
                WalError::Corrupt(format!("{}: {e}", checkpoint_name(epoch)))
            })?;
            report.checkpoint_restored = true;
        }

        let wal_file = wal_name(epoch);
        let wal = match storage.read(&wal_file)? {
            None => Wal::create(storage.as_ref(), &wal_file)?,
            Some(bytes) => {
                let scanned =
                    scan(&bytes).map_err(|e| WalError::Corrupt(format!("{wal_file}: {e}")))?;
                match &scanned.stop {
                    Some(stop @ ScanStop::Corrupt { .. }) => {
                        return Err(WalError::Corrupt(format!(
                            "{wal_file}: {stop}; later frames are intact, so truncating \
                             here would silently lose committed operations — refusing to \
                             recover"
                        )));
                    }
                    Some(torn @ ScanStop::TornTail { .. }) => {
                        tempora_obs::counter("tempora_wal_torn_tail_truncations_total").inc();
                        report.torn_tail = Some(torn.to_string());
                    }
                    None => {}
                }
                for frame in &scanned.frames {
                    let record = WalRecord::decode(&frame.payload).map_err(|e| {
                        WalError::Corrupt(format!(
                            "{wal_file}: frame #{} at byte {}: {e}",
                            frame.seq, frame.offset
                        ))
                    })?;
                    replay(&db, &clock, record).map_err(|e| match e {
                        WalError::Db(inner) => WalError::ReplayDivergence(format!(
                            "{wal_file}: frame #{} at byte {}: replay rejected: {inner}",
                            frame.seq, frame.offset
                        )),
                        other => other,
                    })?;
                    report.frames_replayed += 1;
                }
                tempora_obs::counter("tempora_wal_replayed_frames_total")
                    .add(report.frames_replayed as u64);
                Wal::open_scanned(
                    storage.open(&wal_file)?,
                    scanned.valid_len(),
                    scanned.frames.len() as u64,
                )?
            }
        };

        // Earlier epochs are fully superseded; clear them best-effort and
        // account for what was actually deleted.
        for name in names {
            if epoch_of(&name).is_some_and(|e| e < epoch) && storage.remove(&name).is_ok() {
                report.stale_files_removed += 1;
            }
        }
        tempora_obs::counter("tempora_wal_stale_files_removed_total")
            .add(report.stale_files_removed as u64);

        let barrier = Barrier::open(storage.as_ref(), &wal_file)?;
        clock.go_live();
        tempora_obs::counter("tempora_wal_recoveries_total").inc();
        Ok((
            DurableDatabase {
                db,
                clock,
                storage,
                config,
                writer: Mutex::new(Writer {
                    wal,
                    epoch,
                    pending: VecDeque::new(),
                }),
                appended: AtomicU64::new(0),
                commit: Mutex::new(Commit {
                    durable: 0,
                    leading: false,
                    failed: None,
                }),
                committed: Condvar::new(),
                barrier: Mutex::new(barrier),
            },
            report,
        ))
    }

    /// The in-memory database, for read paths (queries, reports, metrics,
    /// dumps). Writing through this reference bypasses the WAL — use the
    /// durable methods instead.
    #[must_use]
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The recovery clock driving this database (live once `open` returns).
    #[must_use]
    pub fn clock(&self) -> &Arc<RecoveryClock> {
        &self.clock
    }

    /// Executes a `CREATE TEMPORAL RELATION` statement durably.
    ///
    /// # Errors
    ///
    /// [`WalError::Db`] when the DDL is rejected (nothing logged), else
    /// the durability errors of [`Self::insert`].
    pub fn execute_ddl(&self, ddl: &str) -> Result<Arc<RelationSchema>, WalError> {
        let w = self.lock_writable()?;
        let schema = self.db.execute_ddl(ddl)?;
        let record = WalRecord::Create {
            ddl: ddl.to_string(),
        };
        self.commit(w, vec![record.encode()])?;
        Ok(schema)
    }

    /// Inserts a fact durably.
    ///
    /// # Errors
    ///
    /// [`WalError::Db`] when the database rejects the insert (nothing
    /// logged); [`WalError::Degraded`] when the WAL cannot acknowledge it —
    /// the insert stays applied in memory, parked for [`Self::retry`].
    pub fn insert(
        &self,
        relation: &str,
        object: ObjectId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Result<ElementId, WalError> {
        let valid = valid.into();
        let w = self.lock_writable()?;
        let element = self.db.insert(relation, object, valid, attrs.clone())?;
        let tt = self.element_tt(relation, element)?;
        let record = WalRecord::Insert {
            tt,
            relation: relation.to_string(),
            element,
            object,
            valid,
            attrs,
        };
        self.commit(w, vec![record.encode()])?;
        Ok(element)
    }

    /// Logically deletes an element durably.
    ///
    /// # Errors
    ///
    /// As for [`Self::insert`].
    pub fn delete(&self, relation: &str, element: ElementId) -> Result<Timestamp, WalError> {
        let w = self.lock_writable()?;
        let tt = self.db.delete(relation, element)?;
        let record = WalRecord::Delete {
            tt,
            relation: relation.to_string(),
            element,
        };
        self.commit(w, vec![record.encode()])?;
        Ok(tt)
    }

    /// Modifies an element durably.
    ///
    /// # Errors
    ///
    /// As for [`Self::insert`].
    pub fn modify(
        &self,
        relation: &str,
        element: ElementId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Result<ElementId, WalError> {
        let valid = valid.into();
        let w = self.lock_writable()?;
        let new = self.db.modify(relation, element, valid, attrs.clone())?;
        let tt = self.element_tt(relation, new)?;
        let record = WalRecord::Modify {
            tt,
            relation: relation.to_string(),
            old: element,
            new,
            valid,
            attrs,
        };
        self.commit(w, vec![record.encode()])?;
        Ok(new)
    }

    /// Applies an insertion batch through the sharded ingest pipeline,
    /// logging every *accepted* record (rejections are reported in the
    /// [`BatchReport`] and never logged).
    ///
    /// # Errors
    ///
    /// As for [`Self::insert`].
    pub fn apply_batch(
        &self,
        relation: &str,
        records: Vec<BatchRecord>,
    ) -> Result<BatchReport, WalError> {
        let w = self.lock_writable()?;
        let report = self.db.apply_batch(relation, records.clone())?;
        let rejected: BTreeSet<usize> = report.rejected.iter().map(|(i, _)| *i).collect();
        let mut logged: Vec<(Timestamp, Vec<u8>)> = Vec::with_capacity(report.accepted.len());
        let accepted_records = records
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !rejected.contains(i))
            .map(|(_, r)| r);
        for (&element, rec) in report.accepted.iter().zip(accepted_records) {
            let tt = self.element_tt(relation, element)?;
            let record = WalRecord::Insert {
                tt,
                relation: relation.to_string(),
                element,
                object: rec.object,
                valid: rec.valid,
                attrs: rec.attrs,
            };
            logged.push((tt, record.encode()));
        }
        // The log is in transaction-time order; sharded ingest may have
        // stamped records out of batch order.
        logged.sort_by_key(|(tt, _)| *tt);
        self.commit(w, logged.into_iter().map(|(_, p)| p).collect())?;
        Ok(report)
    }

    /// Dispatches any supported statement, routing writes through the WAL
    /// (the durable counterpart of [`Database::execute`]).
    ///
    /// # Errors
    ///
    /// As for the corresponding durable method.
    pub fn execute(&self, statement: &str) -> Result<ExecOutcome, WalError> {
        let first = statement
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        match first.as_str() {
            "CREATE" => Ok(ExecOutcome::Created(self.execute_ddl(statement)?)),
            "SELECT" => Ok(ExecOutcome::Selected(self.db.query(statement)?)),
            "INSERT" | "DELETE" | "UPDATE" => match parse_dml(statement).map_err(DbError::Ddl)? {
                DmlStatement::Insert {
                    relation,
                    object,
                    valid,
                    attrs,
                } => Ok(ExecOutcome::Inserted(
                    self.insert(&relation, object, valid, attrs)?,
                )),
                DmlStatement::Delete { relation, element } => {
                    Ok(ExecOutcome::Deleted(self.delete(&relation, element)?))
                }
                DmlStatement::Update {
                    relation,
                    element,
                    valid,
                    attrs,
                } => Ok(ExecOutcome::Updated(
                    self.modify(&relation, element, valid, attrs)?,
                )),
            },
            // Let the database produce its usual syntax error.
            _ => Ok(self.db.execute(statement)?),
        }
    }

    /// Executes a TQL `SELECT` (read-only; no logging).
    ///
    /// # Errors
    ///
    /// As for [`Database::query`].
    pub fn query(&self, tql: &str) -> Result<QueryResult, WalError> {
        Ok(self.db.query(tql)?)
    }

    /// Compacts the log: writes `checkpoint.<e+1>` atomically, starts a
    /// fresh `wal.<e+1>`, and removes the previous epoch's files. Returns
    /// the new epoch.
    ///
    /// # Errors
    ///
    /// [`WalError::Degraded`] while degraded (retry first — parked frames
    /// are not durable), [`WalError::Io`] on storage failures.
    pub fn checkpoint(&self) -> Result<u64, WalError> {
        let mut w = self.lock_writable()?;
        let mut barrier = self.barrier.lock().map_err(poisoned)?;
        let next = w.epoch + 1;
        let text = dump(&self.db);
        self.storage
            .write_atomic(&checkpoint_name(next), text.as_bytes())?;
        let opened = Wal::create(self.storage.as_ref(), &wal_name(next)).and_then(|wal| {
            Ok((wal, Barrier::open(self.storage.as_ref(), &wal_name(next))?))
        });
        let (wal, next_barrier) = match opened {
            Ok(pair) => pair,
            Err(e) => {
                // Roll the checkpoint back: leaving it would make recovery
                // prefer epoch e+1 and ignore frames still landing in
                // wal.<e>.
                let _ = self.storage.remove(&checkpoint_name(next));
                return Err(WalError::Io(e));
            }
        };
        w.wal = wal;
        w.epoch = next;
        *barrier = next_barrier;
        drop(barrier);
        // The synced checkpoint holds every appended frame: all of them
        // are durable now, without a barrier.
        let mut c = self.lock_commit()?;
        c.durable = c.durable.max(self.appended.load(Ordering::Acquire));
        drop(c);
        self.committed.notify_all();
        // Sweep every epoch below the new one, not just `next − 1`: a
        // crash between a past checkpoint's file creation and its cleanup
        // leaves older epochs behind, and removing only the immediate
        // predecessor would leak them forever.
        if let Ok(names) = self.storage.list() {
            let mut removed = 0_u64;
            for name in names {
                if epoch_of(&name).is_some_and(|e| e < next)
                    && self.storage.remove(&name).is_ok()
                {
                    removed += 1;
                }
            }
            tempora_obs::counter("tempora_wal_stale_files_removed_total").add(removed);
        }
        tempora_obs::counter("tempora_wal_checkpoints_total").inc();
        Ok(next)
    }

    /// Forces every appended operation to stable storage (a durability
    /// barrier on top of the configured fsync policy).
    ///
    /// # Errors
    ///
    /// [`WalError::Degraded`] when the barrier fails; the database
    /// degrades as for a failed write.
    pub fn sync(&self) -> Result<(), WalError> {
        self.await_durable(self.appended.load(Ordering::Acquire))
    }

    /// Attempts to leave degraded mode: truncates any torn bytes, appends
    /// every parked frame, and syncs. On success the database is writable
    /// again; on failure it stays degraded and can be retried later. A
    /// panic mid-commit is not retryable: only reopening clears it.
    ///
    /// # Errors
    ///
    /// The error that kept the retry from completing.
    pub fn retry(&self) -> Result<(), WalError> {
        let mut guard = self.writer.lock().map_err(poisoned)?;
        let w = &mut *guard;
        if self.lock_commit()?.failed.is_none() {
            return Ok(());
        }
        w.wal.repair()?;
        while let Some(payload) = w.pending.front() {
            if let Err(e) = w.wal.append(payload) {
                let _ = w.wal.repair();
                return Err(WalError::Io(e));
            }
            w.pending.pop_front();
            self.appended.fetch_add(1, Ordering::Release);
        }
        // The writer lock keeps appends out: this barrier covers them all.
        let target = self.appended.load(Ordering::Acquire);
        self.sync_barrier().map_err(WalError::Degraded)?;
        let mut c = self.lock_commit()?;
        publish(&mut c, target);
        c.failed = None;
        drop(c);
        self.committed.notify_all();
        Ok(())
    }

    /// The current durability status (the REPL's `.wal`). Answers even
    /// after a panic mid-commit.
    #[must_use]
    pub fn status(&self) -> WalStatus {
        let panicked = self.writer.is_poisoned() || self.commit.is_poisoned();
        let w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let c = self.commit.lock().unwrap_or_else(PoisonError::into_inner);
        let appended = self.appended.load(Ordering::Acquire);
        WalStatus {
            epoch: w.epoch,
            policy: self.config.fsync,
            frames: w.wal.next_seq(),
            bytes: w.wal.good_len(),
            unsynced: usize::try_from(appended.saturating_sub(c.durable)).unwrap_or(usize::MAX),
            pending: w.pending.len(),
            degraded: if panicked {
                Some(POISONED.to_string())
            } else {
                c.failed.clone()
            },
        }
    }

    fn lock_writable(&self) -> Result<MutexGuard<'_, Writer>, WalError> {
        let w = self.writer.lock().map_err(poisoned)?;
        match &self.lock_commit()?.failed {
            Some(reason) => Err(WalError::Degraded(reason.clone())),
            None => Ok(w),
        }
    }

    fn lock_commit(&self) -> Result<MutexGuard<'_, Commit>, WalError> {
        self.commit.lock().map_err(poisoned)
    }

    fn element_tt(&self, relation: &str, element: ElementId) -> Result<Timestamp, WalError> {
        self.db
            .with_relation(relation, |rel| {
                rel.relation().get(element).map(|e| e.tt_begin)
            })
            .flatten()
            .ok_or_else(|| {
                WalError::Corrupt(format!(
                    "freshly written element {element} vanished from {relation}"
                ))
            })
    }

    /// The one commit path. Under the writer lock `w` it appends
    /// `payloads` in order, retrying a failed append in-call and degrading
    /// when it keeps failing; then it releases the lock and waits as the
    /// fsync policy asks.
    fn commit(&self, mut w: MutexGuard<'_, Writer>, payloads: Vec<Vec<u8>>) -> Result<(), WalError> {
        for (i, payload) in payloads.iter().enumerate() {
            let mut attempt = 0_u32;
            while let Err(e) = w.wal.append(payload) {
                let _ = w.wal.repair();
                if attempt >= self.config.append_retries {
                    w.pending.extend(payloads[i..].iter().cloned());
                    let msg = format!("wal append failed: {e}");
                    fail(&mut *self.lock_commit()?, &msg);
                    return Err(WalError::Degraded(msg));
                }
                attempt += 1;
                if !self.config.retry_backoff.is_zero() {
                    std::thread::sleep(self.config.retry_backoff);
                }
            }
            self.appended.fetch_add(1, Ordering::Release);
        }
        let lsn = self.appended.load(Ordering::Relaxed);
        drop(w);
        match self.config.fsync {
            FsyncPolicy::Always => self.await_durable(lsn),
            // At most n − 1 frames stay uncovered: one barrier per n appends.
            FsyncPolicy::GroupCommit(n) => {
                self.await_durable((lsn + 1).saturating_sub(n.max(1) as u64))
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Blocks until every frame up to `lsn` is durable, leading a barrier
    /// whenever none is in flight.
    ///
    /// # Errors
    ///
    /// [`WalError::Degraded`] when the database is degraded before `lsn`
    /// is covered.
    fn await_durable(&self, lsn: u64) -> Result<(), WalError> {
        let mut c = self.lock_commit()?;
        loop {
            if c.durable >= lsn {
                return Ok(());
            }
            if let Some(reason) = &c.failed {
                return Err(WalError::Degraded(reason.clone()));
            }
            c = if c.leading {
                self.committed.wait(c).map_err(poisoned)?
            } else {
                self.lead(c)
            };
        }
    }

    /// Runs one barrier as leader: marks it in flight, syncs every frame
    /// appended so far with the commit lock released, then publishes the
    /// outcome and wakes every waiter.
    fn lead<'a>(&'a self, mut c: MutexGuard<'a, Commit>) -> MutexGuard<'a, Commit> {
        c.leading = true;
        drop(c);
        let unwinding = Unwinding(self);
        // Read before taking the barrier handle: a checkpoint swaps the
        // handle before any frame of the new epoch can be appended.
        let target = self.appended.load(Ordering::Acquire);
        let synced = self.sync_barrier();
        drop(unwinding);
        // Followers wait on the condvar: they must be woken even if the
        // lock was poisoned meanwhile (they then answer `Degraded`).
        let mut c = self.commit.lock().unwrap_or_else(PoisonError::into_inner);
        c.leading = false;
        match synced {
            Ok(()) => publish(&mut c, target),
            Err(reason) => fail(&mut c, &reason),
        }
        self.committed.notify_all();
        c
    }

    fn sync_barrier(&self) -> Result<(), String> {
        let mut barrier = self.barrier.lock().map_err(|_| POISONED.to_string())?;
        barrier.sync().map_err(|e| format!("fsync failed: {e}"))
    }
}

/// Publishes `target` as durable after a barrier, recording how many
/// frames the barrier newly covered.
fn publish(c: &mut Commit, target: u64) {
    tempora_obs::histogram("tempora_wal_group_commit_batch")
        .record_us(target.saturating_sub(c.durable));
    c.durable = c.durable.max(target);
}

fn fail(c: &mut Commit, reason: &str) {
    if c.failed.is_none() {
        tempora_obs::counter("tempora_wal_degraded_entries_total").inc();
    }
    c.failed = Some(reason.to_string());
}

/// Clears `leading` and fails the barrier if the leader unwinds mid-fsync,
/// so its followers are answered instead of waiting forever.
struct Unwinding<'a>(&'a DurableDatabase);

impl Drop for Unwinding<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut c = self.0.commit.lock().unwrap_or_else(PoisonError::into_inner);
            c.leading = false;
            fail(&mut c, POISONED);
            self.0.committed.notify_all();
        }
    }
}

impl Drop for DurableDatabase {
    fn drop(&mut self) {
        // Best-effort flush on clean shutdown; a crash path skips this by
        // definition and relies on recovery.
        let _ = self.sync();
    }
}

impl fmt::Debug for DurableDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableDatabase")
            .field("db", &self.db)
            .field("status", &self.status())
            .finish()
    }
}

fn replay(db: &Database, clock: &RecoveryClock, record: WalRecord) -> Result<(), WalError> {
    if let Some(tt) = record.tt() {
        clock.set(tt);
    }
    match record {
        WalRecord::Create { ddl } => {
            db.execute_ddl(&ddl)?;
        }
        WalRecord::Insert {
            relation,
            element,
            object,
            valid,
            attrs,
            ..
        } => {
            let got = db.insert(&relation, object, valid, attrs)?;
            if got != element {
                return Err(WalError::ReplayDivergence(format!(
                    "insert into {relation} replayed as {got}, log says {element}"
                )));
            }
        }
        WalRecord::Delete {
            relation, element, ..
        } => {
            db.delete(&relation, element)?;
        }
        WalRecord::Modify {
            relation,
            old,
            new,
            valid,
            attrs,
            ..
        } => {
            let got = db.modify(&relation, old, valid, attrs)?;
            if got != new {
                return Err(WalError::ReplayDivergence(format!(
                    "modify of {old} in {relation} replayed as {got}, log says {new}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{AppendFault, FaultPlan, FaultStorage, MemStorage};
    use tempora_time::ManualClock;

    fn manual(secs: i64) -> Arc<ManualClock> {
        Arc::new(ManualClock::new(Timestamp::from_secs(secs)))
    }

    fn open_mem(
        storage: &MemStorage,
        clock: Arc<ManualClock>,
    ) -> (DurableDatabase, RecoveryReport) {
        DurableDatabase::open(
            Arc::new(storage.clone()),
            clock,
            DurabilityConfig::default(),
        )
        .expect("open")
    }

    fn seed(db: &DurableDatabase, clock: &ManualClock) -> ElementId {
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY, v VARYING) AS EVENT")
            .expect("ddl");
        clock.set(Timestamp::from_secs(100));
        let a = db
            .insert(
                "r",
                ObjectId::new(1),
                Timestamp::from_secs(90),
                vec![(AttrName::new("v"), Value::Int(1))],
            )
            .expect("insert");
        clock.set(Timestamp::from_secs(200));
        db.modify(
            "r",
            a,
            Timestamp::from_secs(95),
            vec![(AttrName::new("v"), Value::Int(2))],
        )
        .expect("modify")
    }

    #[test]
    fn reopen_reproduces_the_database_exactly() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, report) = open_mem(&storage, clock.clone());
        assert_eq!(report, RecoveryReport {
            epoch: 0,
            checkpoint_restored: false,
            frames_replayed: 0,
            torn_tail: None,
            stale_files_removed: 0,
        });
        let b = seed(&db, &clock);
        clock.set(Timestamp::from_secs(300));
        db.delete("r", b).expect("delete");
        let expected = dump(db.db());
        drop(db);

        let (again, report) = open_mem(&storage, manual(0));
        assert_eq!(report.frames_replayed, 4, "{report}");
        assert!(report.torn_tail.is_none());
        assert_eq!(dump(again.db()), expected);
        // History answers identically (rollback to before the modify).
        let r = again
            .query("SELECT FROM r AT 1970-01-01T00:01:30 AS OF 1970-01-01T00:01:40")
            .expect("query");
        assert_eq!(r.elements[0].attr("v"), Some(&Value::Int(1)));
    }

    #[test]
    fn checkpoint_compacts_and_recovers() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, _) = open_mem(&storage, clock.clone());
        seed(&db, &clock);
        let epoch = db.checkpoint().expect("checkpoint");
        assert_eq!(epoch, 1);
        // Old epoch files are gone; new ones exist.
        let names = storage.list().expect("list");
        assert_eq!(names, vec!["checkpoint.1".to_string(), "wal.1".to_string()]);
        // Post-checkpoint writes land in the new wal.
        clock.set(Timestamp::from_secs(400));
        db.insert("r", ObjectId::new(2), Timestamp::from_secs(390), vec![])
            .expect("insert");
        let expected = dump(db.db());
        drop(db);

        let (again, report) = open_mem(&storage, manual(0));
        assert_eq!(report.epoch, 1);
        assert!(report.checkpoint_restored);
        assert_eq!(report.frames_replayed, 1);
        assert_eq!(dump(again.db()), expected);
        // The restored database keeps accepting durable work.
        let clock2 = manual(500);
        drop(again);
        let (third, _) = open_mem(&storage, clock2);
        third
            .insert("r", ObjectId::new(3), Timestamp::from_secs(450), vec![])
            .expect("insert after second recovery");
    }

    /// Regression: recovery used to delete superseded epoch files without
    /// reporting it, and a crashed checkpoint could leave epochs behind
    /// silently. The sweep must be visible in the [`RecoveryReport`].
    #[test]
    fn recovery_sweeps_stale_epochs_and_reports_the_count() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, _) = open_mem(&storage, clock.clone());
        seed(&db, &clock);
        db.checkpoint().expect("checkpoint");
        drop(db);
        // Simulate the leak a crash mid-checkpoint leaves behind: stale
        // files from epochs long since superseded.
        storage
            .write_atomic("checkpoint.0", b"TEMPORA DUMP v1\nDATA\n")
            .expect("fabricate stale checkpoint");
        storage.write_atomic("wal.0", b"junk").expect("fabricate stale wal");

        let (_again, report) = open_mem(&storage, manual(0));
        assert_eq!(report.epoch, 1);
        assert_eq!(report.stale_files_removed, 2, "{report}");
        assert!(report.to_string().contains("2 stale epoch file(s) removed"));
        let names = storage.list().expect("list");
        assert_eq!(names, vec!["checkpoint.1".to_string(), "wal.1".to_string()]);
    }

    /// Regression: `checkpoint()` used to remove only epoch `next − 1`, so
    /// an epoch leaked by an earlier crash survived every later
    /// checkpoint. It must sweep everything below the new epoch.
    #[test]
    fn checkpoint_sweeps_every_superseded_epoch() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, _) = open_mem(&storage, clock.clone());
        seed(&db, &clock);
        db.checkpoint().expect("first checkpoint");
        // Fabricate an epoch-0 pair the first checkpoint failed to clean.
        storage
            .write_atomic("checkpoint.0", b"TEMPORA DUMP v1\nDATA\n")
            .expect("fabricate stale checkpoint");
        storage.write_atomic("wal.0", b"junk").expect("fabricate stale wal");

        clock.set(Timestamp::from_secs(400));
        db.insert("r", ObjectId::new(5), Timestamp::from_secs(390), vec![])
            .expect("insert");
        db.checkpoint().expect("second checkpoint");
        let names = storage.list().expect("list");
        assert_eq!(
            names,
            vec!["checkpoint.2".to_string(), "wal.2".to_string()],
            "epoch 0 leftovers and epoch 1 must both be gone"
        );
    }

    #[test]
    fn rejected_operations_are_not_logged() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, _) = open_mem(&storage, clock.clone());
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT WITH RETROACTIVE")
            .expect("ddl");
        let before = db.status().frames;
        clock.set(Timestamp::from_secs(10));
        let err = db
            .insert("r", ObjectId::new(1), Timestamp::from_secs(999), vec![])
            .expect_err("future vt violates RETROACTIVE");
        assert!(matches!(err, WalError::Db(_)), "{err}");
        assert_eq!(db.status().frames, before, "rejected op must not be logged");
    }

    #[test]
    fn append_failure_degrades_and_retry_recovers() {
        let plan = FaultPlan::new();
        let mem = MemStorage::new();
        let storage = FaultStorage::new(Arc::new(mem.clone()), Arc::clone(&plan));
        let clock = manual(0);
        let (db, _) = DurableDatabase::open(
            Arc::new(storage),
            clock.clone(),
            DurabilityConfig {
                append_retries: 0,
                ..DurabilityConfig::default()
            },
        )
        .expect("open");
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT")
            .expect("ddl");
        clock.set(Timestamp::from_secs(10));
        // Next append (header was append #0, ddl #1) tears mid-frame.
        plan.fail_append(2, AppendFault::Short(5));
        let err = db
            .insert("r", ObjectId::new(1), Timestamp::from_secs(5), vec![])
            .expect_err("append fault must surface");
        assert!(matches!(err, WalError::Degraded(_)), "{err}");
        // Read-only now: the next write is refused outright.
        let err2 = db
            .insert("r", ObjectId::new(2), Timestamp::from_secs(6), vec![])
            .expect_err("degraded mode refuses writes");
        assert!(matches!(err2, WalError::Degraded(_)), "{err2}");
        // But reads still work, and the parked op is visible in memory.
        assert_eq!(db.query("SELECT FROM r").expect("query").stats.returned, 1);
        let status = db.status();
        assert!(status.degraded.is_some());
        assert_eq!(status.pending, 1);
        assert!(status.to_string().contains("READ-ONLY"));

        db.retry().expect("retry succeeds once the fault clears");
        assert!(db.status().degraded.is_none());
        clock.set(Timestamp::from_secs(20));
        db.insert("r", ObjectId::new(2), Timestamp::from_secs(6), vec![])
            .expect("writable again");
        let expected = dump(db.db());
        drop(db);
        // Everything — including the once-parked insert — recovers.
        let (again, report) = open_mem(&mem, manual(0));
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(dump(again.db()), expected);
    }

    #[test]
    fn fsync_failure_degrades_without_double_logging() {
        let plan = FaultPlan::new();
        let mem = MemStorage::new();
        let storage = FaultStorage::new(Arc::new(mem.clone()), Arc::clone(&plan));
        let clock = manual(0);
        let (db, _) = DurableDatabase::open(
            Arc::new(storage),
            clock.clone(),
            DurabilityConfig::default(),
        )
        .expect("open");
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT")
            .expect("ddl");
        clock.set(Timestamp::from_secs(10));
        // Sync #0 created the file, #1 covered the ddl; #2 fails.
        plan.fail_sync(2);
        let err = db
            .insert("r", ObjectId::new(1), Timestamp::from_secs(5), vec![])
            .expect_err("fsync fault must surface");
        assert!(matches!(err, WalError::Degraded(_)), "{err}");
        let status = db.status();
        assert_eq!(status.pending, 0, "frame landed; nothing parked");
        db.retry().expect("retry only needs the barrier");
        let expected = dump(db.db());
        drop(db);
        let (again, report) = open_mem(&mem, manual(0));
        assert_eq!(report.frames_replayed, 2, "{report}");
        assert_eq!(dump(again.db()), expected, "no duplicated frame");
    }

    /// Wraps a storage to count fsyncs (MemStorage's own sync is a no-op)
    /// and, once armed, to hold the next sync until the test releases it.
    #[derive(Clone, Default)]
    struct Probe {
        syncs: Arc<std::sync::atomic::AtomicU64>,
        gate: Arc<(Mutex<Gate>, Condvar)>,
    }
    #[derive(Default)]
    struct Gate {
        armed: bool,
        entered: bool,
        released: bool,
    }
    struct ProbeStorage {
        inner: Arc<dyn Storage>,
        probe: Probe,
    }
    struct ProbeFile {
        inner: Box<dyn crate::io::LogFile>,
        probe: Probe,
    }
    impl Probe {
        fn syncs(&self) -> u64 {
            self.syncs.load(Ordering::SeqCst)
        }
        fn arm(&self) {
            self.gate.0.lock().unwrap().armed = true;
        }
        fn await_entered(&self) {
            let (lock, cv) = &*self.gate;
            let _g = cv.wait_while(lock.lock().unwrap(), |g| !g.entered).unwrap();
        }
        fn release(&self) {
            let (lock, cv) = &*self.gate;
            lock.lock().unwrap().released = true;
            cv.notify_all();
        }
    }
    impl crate::io::LogFile for ProbeFile {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            let (lock, cv) = &*self.probe.gate;
            let mut g = lock.lock().unwrap();
            if g.armed {
                g.armed = false;
                g.entered = true;
                cv.notify_all();
                drop(cv.wait_while(g, |g| !g.released).unwrap());
            } else {
                drop(g);
            }
            self.probe.syncs.fetch_add(1, Ordering::SeqCst);
            self.inner.sync()
        }
        fn len(&self) -> io::Result<u64> {
            self.inner.len()
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.inner.truncate(len)
        }
    }
    impl Storage for ProbeStorage {
        fn open(&self, name: &str) -> io::Result<Box<dyn crate::io::LogFile>> {
            Ok(Box::new(ProbeFile {
                inner: self.inner.open(name)?,
                probe: self.probe.clone(),
            }))
        }
        fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.inner.write_atomic(name, bytes)
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            self.inner.remove(name)
        }
        fn list(&self) -> io::Result<Vec<String>> {
            self.inner.list()
        }
    }

    /// A database on probed storage with relation `r` created and synced.
    fn probed(
        inner: Arc<dyn Storage>,
        fsync: FsyncPolicy,
    ) -> (DurableDatabase, Arc<ManualClock>, Probe) {
        let probe = Probe::default();
        let clock = manual(0);
        let (db, _) = DurableDatabase::open(
            Arc::new(ProbeStorage {
                inner,
                probe: probe.clone(),
            }),
            clock.clone(),
            DurabilityConfig::with_fsync(fsync),
        )
        .expect("open");
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT")
            .expect("ddl");
        db.sync().expect("sync");
        (db, clock, probe)
    }

    fn insert_one(db: &DurableDatabase, clock: &ManualClock, i: u64) -> Result<ElementId, WalError> {
        clock.set(Timestamp::from_secs(10 + i as i64));
        db.insert("r", ObjectId::new(i), Timestamp::from_secs(5), vec![])
    }

    #[test]
    fn always_policy_syncs_every_append() {
        let (db, clock, probe) = probed(Arc::new(MemStorage::new()), FsyncPolicy::Always);
        let after_create = probe.syncs();
        for i in 0..5 {
            insert_one(&db, &clock, i).expect("insert");
            assert_eq!(db.status().unsynced, 0, "acknowledged means durable");
        }
        assert_eq!(probe.syncs() - after_create, 5);
    }

    #[test]
    fn group_commit_syncs_every_nth() {
        let (db, clock, probe) =
            probed(Arc::new(MemStorage::new()), FsyncPolicy::GroupCommit(3));
        let after_create = probe.syncs();
        let unsynced: Vec<usize> = (0..7)
            .map(|i| {
                insert_one(&db, &clock, i).expect("insert");
                db.status().unsynced
            })
            .collect();
        assert_eq!(unsynced, [1, 2, 0, 1, 2, 0, 1]);
        assert_eq!(probe.syncs() - after_create, 2);
        db.sync().expect("sync");
        assert_eq!(probe.syncs() - after_create, 3);
        assert_eq!(db.status().unsynced, 0);
        db.sync().expect("idempotent when clean");
        assert_eq!(probe.syncs() - after_create, 3);
    }

    #[test]
    fn never_policy_leaves_sync_to_close() {
        let (db, clock, probe) = probed(Arc::new(MemStorage::new()), FsyncPolicy::Never);
        let after_create = probe.syncs();
        for i in 0..4 {
            insert_one(&db, &clock, i).expect("insert");
        }
        assert_eq!(probe.syncs(), after_create);
        assert_eq!(db.status().unsynced, 4);
        drop(db);
        assert_eq!(probe.syncs() - after_create, 1, "close syncs once");
    }

    /// Two writers wait on one barrier that fails: neither is acknowledged,
    /// both answer `Degraded`, `retry` restores writability, and a reopen
    /// finds each frame exactly once.
    #[test]
    fn a_failed_barrier_degrades_every_waiter_and_retry_recovers() {
        let plan = FaultPlan::new();
        let mem = MemStorage::new();
        let faulty = Arc::new(FaultStorage::new(Arc::new(mem.clone()), Arc::clone(&plan)));
        let (db, clock, probe) = probed(faulty, FsyncPolicy::Always);
        // Syncs so far: the header at open (#0) and the DDL's barrier (#1).
        plan.fail_sync(2);
        probe.arm();
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| insert_one(&db, &clock, 1));
            // The first writer leads; its barrier is now held open.
            probe.await_entered();
            let second = s.spawn(|| insert_one(&db, &clock, 2));
            while db.status().unsynced < 2 {
                std::thread::yield_now();
            }
            probe.release();
            (first.join().unwrap(), second.join().unwrap())
        });
        for outcome in [&first, &second] {
            assert!(matches!(outcome, Err(WalError::Degraded(_))), "{outcome:?}");
        }
        let status = db.status();
        assert!(status.degraded.is_some());
        assert_eq!(status.pending, 0, "both frames landed; nothing parked");
        assert_eq!(status.unsynced, 2, "neither frame is behind a barrier");
        assert!(matches!(
            insert_one(&db, &clock, 3),
            Err(WalError::Degraded(_))
        ));

        db.retry().expect("retry needs only a barrier");
        assert_eq!(db.status().unsynced, 0);
        insert_one(&db, &clock, 4).expect("writable again");
        let expected = dump(db.db());
        drop(db);
        let (again, report) = open_mem(&mem, manual(0));
        assert_eq!(report.frames_replayed, 4, "ddl + 2 unacknowledged + 1: {report}");
        assert_eq!(dump(again.db()), expected, "no duplicated frame");
    }

    /// A panic under the writer lock (a contained panic in a served write)
    /// poisons it: later writes answer `Degraded` instead of panicking,
    /// `retry` cannot clear it, and reads and `status` keep working.
    #[test]
    fn a_panic_mid_commit_degrades_instead_of_panicking() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, _) = open_mem(&storage, clock.clone());
        seed(&db, &clock);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _w = db.writer.lock();
            panic!("write blew up mid-commit");
        }));
        assert!(panicked.is_err());

        let err = insert_one(&db, &clock, 9).expect_err("writes are refused");
        assert!(matches!(&err, WalError::Degraded(m) if m.contains("panicked")), "{err}");
        assert!(matches!(db.execute("DELETE FROM r ELEMENT 0"), Err(WalError::Degraded(_))));
        assert!(matches!(db.checkpoint(), Err(WalError::Degraded(_))));
        assert!(matches!(db.retry(), Err(WalError::Degraded(_))), "retry cannot clear it");
        assert_eq!(db.query("SELECT FROM r").expect("reads work").stats.returned, 1);
        let status = db.status();
        assert!(status.degraded.as_deref().is_some_and(|m| m.contains("reopen")));
        db.sync().expect("acknowledged frames can still be synced");
    }

    #[test]
    fn interior_corruption_refuses_recovery_with_diagnostics() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, _) = open_mem(&storage, clock.clone());
        seed(&db, &clock);
        drop(db);
        // Flip one bit in the first frame's payload region.
        let wal_bytes = storage.read("wal.0").expect("read").expect("exists");
        let offset = crate::frame::FILE_HEADER.len() + crate::frame::FRAME_HEADER_LEN + 2;
        assert!(offset < wal_bytes.len());
        assert!(storage.corrupt("wal.0", offset, 0x10));
        let err = DurableDatabase::open(
            Arc::new(storage.clone()),
            manual(0),
            DurabilityConfig::default(),
        )
        .expect_err("interior corruption must refuse");
        let msg = err.to_string();
        assert!(msg.contains("wal.0"), "{msg}");
        assert!(msg.contains("frame #0"), "{msg}");
        assert!(msg.contains("refusing"), "{msg}");
    }

    #[test]
    fn execute_routes_writes_through_the_wal() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, _) = open_mem(&storage, clock.clone());
        db.execute("CREATE TEMPORAL RELATION plant (sensor KEY, temperature VARYING) AS EVENT")
            .expect("create");
        clock.set(Timestamp::from_secs(100));
        let outcome = db
            .execute("INSERT INTO plant OBJECT 7 VALID 1970-01-01T00:00:50 SET temperature = 19.5")
            .expect("insert");
        let ExecOutcome::Inserted(id) = outcome else {
            panic!("expected insert outcome");
        };
        clock.set(Timestamp::from_secs(110));
        db.execute(&format!(
            "UPDATE plant ELEMENT {} VALID 1970-01-01T00:00:55 SET temperature = 20.0",
            id.raw()
        ))
        .expect("update");
        assert!(matches!(
            db.execute("SELECT FROM plant").expect("select"),
            ExecOutcome::Selected(_)
        ));
        assert!(db.execute("EXPLODE plant").is_err());
        let expected = dump(db.db());
        drop(db);
        let (again, report) = open_mem(&storage, manual(0));
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(dump(again.db()), expected);
    }

    #[test]
    fn batches_log_accepted_records_only() {
        let storage = MemStorage::new();
        let clock = manual(0);
        let (db, _) = open_mem(&storage, clock.clone());
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT WITH RETROACTIVE")
            .expect("ddl");
        clock.set(Timestamp::from_secs(100));
        let report = db
            .apply_batch(
                "r",
                vec![
                    BatchRecord::new(ObjectId::new(1), Timestamp::from_secs(90)),
                    BatchRecord::new(ObjectId::new(2), Timestamp::from_secs(999)), // future: rejected
                    BatchRecord::new(ObjectId::new(3), Timestamp::from_secs(95)),
                ],
            )
            .expect("batch");
        assert_eq!(report.accepted.len(), 2);
        assert_eq!(report.rejected.len(), 1);
        let expected = dump(db.db());
        drop(db);
        let (again, recovery) = open_mem(&storage, manual(0));
        assert_eq!(recovery.frames_replayed, 3, "{recovery}"); // ddl + 2 inserts
        assert_eq!(dump(again.db()), expected);
    }
}
