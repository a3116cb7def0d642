//! # tempora-wal — durability for the temporal database
//!
//! The paper's taxonomy (§3.1) leans on *transaction time* being the
//! moment a fact was stored — which only means something if stored facts
//! survive the process. This crate makes them survive it:
//!
//! * [`Storage`]/[`LogFile`] — pluggable log IO: real files
//!   ([`DirStorage`]), shared memory ([`MemStorage`]), and a deterministic
//!   fault injector ([`FaultStorage`]) scripting short writes, append
//!   errors, and fsync failures for the crash harness;
//! * [`frame`] — the checksummed, length-prefixed frame format and the
//!   recovery scanner that separates a torn tail (truncate, continue) from
//!   interior corruption (refuse, diagnose);
//! * [`WalRecord`] — one committed operation per frame, reusing the dump
//!   codec so the two persistence formats cannot drift;
//! * [`Wal`] — the append side of the log, with torn-write repair, and
//!   [`FsyncPolicy`], when a commit waits for the durability barrier;
//! * [`DurableDatabase`] — a [`tempora_design::Database`] behind the
//!   log-then-acknowledge protocol: appends under a writer lock, fsyncs
//!   shared by concurrent commits (leader/follower group commit) outside
//!   it, epoch-named checkpoints
//!   (`checkpoint.<e>` + `wal.<e>`), crash recovery through a
//!   [`tempora_time::RecoveryClock`] (recovered stamps equal the
//!   originals), and read-only degraded mode with retry when the log
//!   itself fails.
//!
//! ```
//! use std::sync::Arc;
//! use tempora_time::{ManualClock, Timestamp};
//! use tempora_wal::{DurabilityConfig, DurableDatabase, MemStorage};
//!
//! let storage = MemStorage::new();
//! let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
//! let (db, _) = DurableDatabase::open(
//!     Arc::new(storage.clone()), clock.clone(), DurabilityConfig::default(),
//! ).unwrap();
//! db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT").unwrap();
//! clock.set(Timestamp::from_secs(10));
//! db.execute("INSERT INTO r OBJECT 1 VALID 1970-01-01T00:00:05").unwrap();
//! drop(db);
//!
//! // "Crash" and recover: the fact is still there, same stamps.
//! let (again, report) = DurableDatabase::open(
//!     Arc::new(storage), Arc::new(ManualClock::new(Timestamp::from_secs(0))),
//!     DurabilityConfig::default(),
//! ).unwrap();
//! assert_eq!(report.frames_replayed, 2);
//! assert_eq!(again.query("SELECT FROM r").unwrap().stats.returned, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod durable;
mod io;
mod log;
mod record;

pub use durable::{
    DurabilityConfig, DurableDatabase, RecoveryReport, WalError, WalStatus,
};
pub use io::{AppendFault, DirStorage, FaultPlan, FaultStorage, LogFile, MemStorage, Storage};
pub use log::{FsyncPolicy, ParsePolicyError, Wal};
pub use record::WalRecord;
