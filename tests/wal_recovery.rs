//! Byte-level crash-recovery differential harness — the centerpiece of the
//! durability work.
//!
//! The harness runs a committed operation sequence against a
//! [`DurableDatabase`] on in-memory storage, recording after every
//! acknowledged operation the WAL length, a full dump, and the answers to a
//! panel of timeslice/rollback probe queries. It then simulates a crash at
//! byte offset `N` by truncating the WAL image to `N` bytes and recovering
//! into a fresh store. The contract under test:
//!
//! * recovery restores **exactly** the longest committed prefix whose
//!   acknowledgement fit inside `N` bytes — dump-identical and
//!   query-identical, never a partial frame, never an extra one;
//! * recovery never panics: a torn tail is truncated and reported, while a
//!   corrupted *interior* frame (bit flip with intact frames after it) makes
//!   recovery refuse with a diagnostic naming the frame;
//! * injected append/fsync failures degrade the database to read-only and
//!   `retry()` restores writability without double-logging;
//! * with eight concurrent writers sharing fsync barriers, every
//!   acknowledged write survives a crash at the synced length its
//!   acknowledgement saw, and that crash recovers a committed prefix.
//!
//! The default proptest sweeps the boundary offsets around every commit
//! point plus a random sample; `crash_at_every_byte_exhaustive` (run with
//! `--ignored`, wired into the CI `crash-recovery` job) crashes at *every*
//! byte offset of the log.

use std::sync::Arc;

use proptest::prelude::*;
use tempora::design::dump::dump;
use tempora::design::Database;
use tempora::prelude::*;
use tempora::design::ExecOutcome;
use tempora::wal::{
    AppendFault, DurabilityConfig, DurableDatabase, FaultPlan, FaultStorage, LogFile,
    MemStorage, Storage, WalError,
};

const DDL: &str = "CREATE TEMPORAL RELATION plant (sensor KEY, reading VARYING) AS EVENT";

/// One committed write, derived deterministically from a raw draw so the
/// whole sequence is reproducible from a `Vec<u64>`.
#[derive(Clone, Debug)]
enum Op {
    Insert { object: u64, vt: i64, reading: i64 },
    Modify { target: usize, vt: i64, reading: i64 },
    Delete { target: usize },
}

/// Decodes raw proptest draws into ops. Modify/delete fall back to insert
/// while nothing is live, so every draw commits something.
fn decode_ops(raw: &[u64]) -> Vec<Op> {
    let mut live = 0usize;
    let mut ops = Vec::with_capacity(raw.len());
    for &r in raw {
        let kind = r % 4;
        let op = if kind >= 2 && live > 0 {
            let target = (r / 7) as usize % live;
            if kind == 3 {
                live -= 1;
                Op::Delete { target }
            } else {
                Op::Modify {
                    target,
                    vt: (r / 20 % 2400) as i64,
                    reading: (r % 97) as i64,
                }
            }
        } else {
            live += 1;
            Op::Insert {
                object: r / 4 % 5,
                vt: (r / 20 % 2400) as i64,
                reading: (r % 97) as i64,
            }
        };
        ops.push(op);
    }
    ops
}

/// The per-prefix observable state: index `k` describes the database after
/// the first `k` committed operations (index 0 = empty database).
struct Applied {
    storage: MemStorage,
    /// `wal.0` length in bytes after operation `i` was acknowledged.
    commit_lens: Vec<usize>,
    /// `dumps[k]` / `probes[k]`: state after `k` committed operations.
    dumps: Vec<String>,
    probes: Vec<Vec<String>>,
}

fn attrs(reading: i64) -> Vec<(AttrName, Value)> {
    vec![(AttrName::new("reading"), Value::Int(reading))]
}

/// Rollback/timeslice probe panel. Probes cover a valid-time point, a
/// valid-time range, and as-of rollbacks at transaction times spanning the
/// whole op sequence, so two databases that answer identically here agree
/// on both time axes.
fn probe(db: &Database, ops: usize) -> Vec<String> {
    let mut tqls = vec![
        "SELECT FROM plant AT 1970-01-01T00:10:00".to_string(),
        "SELECT FROM plant DURING 1970-01-01T00:00:00 TO 1970-01-01T00:40:00".to_string(),
    ];
    for i in 0..=ops {
        let tt = Timestamp::from_secs(1000 + 10 * i as i64);
        tqls.push(format!("SELECT FROM plant AT 1970-01-01T00:10:00 AS OF {tt}"));
        tqls.push(format!("SELECT FROM plant AS OF {tt}"));
    }
    tqls.iter().map(|tql| render(db, tql)).collect()
}

/// Renders a query answer (or its error) as a stable string: elements
/// sorted by id with every field included, so any divergence in content,
/// stamps, or tombstones shows up.
fn render(db: &Database, tql: &str) -> String {
    match db.query(tql) {
        Ok(result) => {
            let mut rows: Vec<String> = result
                .elements
                .iter()
                .map(|e| {
                    format!(
                        "{:?} {:?} {:?} tt=[{}..{}] {:?}",
                        e.id,
                        e.object,
                        e.valid,
                        e.tt_begin,
                        e.tt_end.map_or("∞".to_string(), |t| t.to_string()),
                        e.attrs
                    )
                })
                .collect();
            rows.sort();
            rows.join("\n")
        }
        Err(e) => format!("error: {e}"),
    }
}

/// Length of `wal.0` in the backing store right now.
fn wal_len(storage: &MemStorage) -> usize {
    storage.snapshot().get("wal.0").map_or(0, Vec::len)
}

/// Runs the op sequence to completion, recording the observable state
/// after every acknowledged commit.
fn apply(ops: &[Op]) -> Applied {
    let storage = MemStorage::new();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let (db, _) = DurableDatabase::open(
        Arc::new(storage.clone()),
        clock.clone(),
        DurabilityConfig::default(),
    )
    .expect("open fresh store");

    let mut applied = Applied {
        storage: storage.clone(),
        commit_lens: Vec::new(),
        dumps: vec![dump(db.db())],
        probes: vec![probe(db.db(), ops.len())],
    };
    let commit = |db: &DurableDatabase, applied: &mut Applied| {
        applied.commit_lens.push(wal_len(&storage));
        applied.dumps.push(dump(db.db()));
        applied.probes.push(probe(db.db(), ops.len()));
    };

    clock.set(Timestamp::from_secs(1000));
    db.execute_ddl(DDL).expect("ddl");
    commit(&db, &mut applied);

    let mut live: Vec<ElementId> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        clock.set(Timestamp::from_secs(1000 + 10 * (i as i64 + 1)));
        match *op {
            Op::Insert { object, vt, reading } => {
                let id = db
                    .insert(
                        "plant",
                        ObjectId::new(object),
                        Timestamp::from_secs(vt),
                        attrs(reading),
                    )
                    .expect("insert");
                live.push(id);
            }
            Op::Modify { target, vt, reading } => {
                let old = live[target % live.len()];
                let new = db
                    .modify("plant", old, Timestamp::from_secs(vt), attrs(reading))
                    .expect("modify");
                let slot = target % live.len();
                live[slot] = new;
            }
            Op::Delete { target } => {
                let old = live.remove(target % live.len());
                db.delete("plant", old).expect("delete");
            }
        }
        commit(&db, &mut applied);
    }
    applied
}

/// Truncates the WAL image to `crash_at` bytes and recovers from the
/// result, exactly as a process restart after a crash would.
fn crash_and_recover(
    applied: &Applied,
    crash_at: usize,
) -> Result<DurableDatabase, WalError> {
    let mut files = applied.storage.snapshot();
    if let Some(wal) = files.get_mut("wal.0") {
        wal.truncate(crash_at);
    }
    let storage = MemStorage::from_files(files);
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    DurableDatabase::open(Arc::new(storage), clock, DurabilityConfig::default())
        .map(|(db, _)| db)
}

/// The core differential assertion: after crashing at byte `crash_at`,
/// recovery must reproduce exactly the committed prefix that fit.
fn check_crash_offset(applied: &Applied, ops: usize, crash_at: usize) -> Result<(), String> {
    let k = applied.commit_lens.partition_point(|&len| len <= crash_at);
    let recovered = crash_and_recover(applied, crash_at)
        .map_err(|e| format!("crash at byte {crash_at}: recovery failed: {e}"))?;
    if dump(recovered.db()) != applied.dumps[k] {
        return Err(format!(
            "crash at byte {crash_at}: recovered dump differs from committed \
             prefix of {k} op(s)\n-- recovered --\n{}\n-- expected --\n{}",
            dump(recovered.db()),
            applied.dumps[k]
        ));
    }
    let answers = probe(recovered.db(), ops);
    if answers != applied.probes[k] {
        return Err(format!(
            "crash at byte {crash_at}: recovered query answers differ from \
             committed prefix of {k} op(s):\n{answers:#?}\nvs\n{:#?}",
            applied.probes[k]
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random op sequences; crash at the boundary offsets around every
    /// commit point plus a random sample of interior offsets.
    #[test]
    fn crash_recovery_restores_exactly_the_committed_prefix(
        raw in prop::collection::vec(0_u64..1_000_000, 1..12),
        sampled in prop::collection::vec(0_usize..65_536, 4..10),
    ) {
        let ops = decode_ops(&raw);
        let applied = apply(&ops);
        let total = *applied.commit_lens.last().expect("at least the DDL commits");

        let mut offsets: Vec<usize> = vec![0, total / 2, total];
        for &len in &applied.commit_lens {
            offsets.push(len.saturating_sub(1));
            offsets.push(len);
            offsets.push((len + 1).min(total));
        }
        offsets.extend(sampled.iter().map(|s| s % (total + 1)));
        offsets.sort_unstable();
        offsets.dedup();

        for crash_at in offsets {
            if let Err(msg) = check_crash_offset(&applied, ops.len(), crash_at) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}

/// Exhaustive sweep: crash at **every** byte offset of the WAL for a fixed
/// op sequence covering insert, modify, and delete. `#[ignore]`d because it
/// recovers the database once per byte; the CI `crash-recovery` job runs it.
#[test]
#[ignore = "exhaustive per-byte sweep; run via cargo test -- --ignored"]
fn crash_at_every_byte_exhaustive() {
    let raw: Vec<u64> = (0..10).map(|i| (i * 7919 + 13) % 1_000_000).collect();
    let ops = decode_ops(&raw);
    let applied = apply(&ops);
    let total = *applied.commit_lens.last().expect("commits");
    for crash_at in 0..=total {
        if let Err(msg) = check_crash_offset(&applied, ops.len(), crash_at) {
            panic!("{msg}");
        }
    }
}

/// Crash offsets inside the *post-checkpoint* WAL: the checkpoint itself
/// must survive intact and replay resumes from it.
#[test]
fn crash_after_checkpoint_recovers_from_the_checkpoint() {
    let storage = MemStorage::new();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let (db, _) = DurableDatabase::open(
        Arc::new(storage.clone()),
        clock.clone(),
        DurabilityConfig::default(),
    )
    .expect("open");
    clock.set(Timestamp::from_secs(1000));
    db.execute_ddl(DDL).expect("ddl");
    clock.set(Timestamp::from_secs(1010));
    db.insert("plant", ObjectId::new(1), Timestamp::from_secs(500), attrs(7))
        .expect("insert");
    db.checkpoint().expect("checkpoint");
    let checkpoint_state = dump(db.db());

    // Post-checkpoint commits land in wal.1.
    let base_len = storage.snapshot().get("wal.1").map_or(0, Vec::len);
    clock.set(Timestamp::from_secs(1020));
    db.insert("plant", ObjectId::new(2), Timestamp::from_secs(600), attrs(9))
        .expect("insert");
    let commit_len = storage.snapshot().get("wal.1").map_or(0, Vec::len);
    let full_state = dump(db.db());
    drop(db);

    for crash_at in 0..=commit_len {
        let mut files = storage.snapshot();
        files.get_mut("wal.1").expect("wal.1").truncate(crash_at);
        let (recovered, report) = DurableDatabase::open(
            Arc::new(MemStorage::from_files(files)),
            Arc::new(ManualClock::new(Timestamp::from_secs(0))),
            DurabilityConfig::default(),
        )
        .unwrap_or_else(|e| panic!("crash at byte {crash_at} of wal.1: {e}"));
        assert!(report.checkpoint_restored, "crash at byte {crash_at}");
        let expected = if crash_at >= commit_len && commit_len > base_len {
            &full_state
        } else {
            &checkpoint_state
        };
        assert_eq!(
            &dump(recovered.db()),
            expected,
            "crash at byte {crash_at} of wal.1"
        );
    }
}

/// Bit flips over every byte of the WAL: each flip either truncates a torn
/// tail (flip in the last frame), refuses recovery with a diagnostic
/// naming the corrupt frame (interior flip), or is absorbed (flip in
/// header padding is impossible — every byte is covered by the header
/// check or a CRC). Never a panic, never silently-wrong data.
#[test]
fn bit_flips_never_panic_and_never_lose_data_silently() {
    let raw: Vec<u64> = (0..6).map(|i| (i * 104_729 + 31) % 1_000_000).collect();
    let ops = decode_ops(&raw);
    let applied = apply(&ops);
    let total = *applied.commit_lens.last().expect("commits");
    let last_commit_start = applied.commit_lens[applied.commit_lens.len() - 2];

    for offset in 0..total {
        let mut files = applied.storage.snapshot();
        files.get_mut("wal.0").expect("wal.0")[offset] ^= 0x40;
        let result = DurableDatabase::open(
            Arc::new(MemStorage::from_files(files)),
            Arc::new(ManualClock::new(Timestamp::from_secs(0))),
            DurabilityConfig::default(),
        );
        match result {
            Ok((recovered, report)) => {
                // A flip may only be tolerated by truncating a torn tail:
                // the recovered state must be a committed prefix, and the
                // flip must sit at or after the frame that was dropped.
                let recovered_dump = dump(recovered.db());
                let k = applied
                    .dumps
                    .iter()
                    .position(|d| d == &recovered_dump)
                    .unwrap_or_else(|| {
                        panic!("flip at byte {offset}: recovered state is not a committed prefix")
                    });
                assert!(
                    offset >= last_commit_start || k < applied.dumps.len() - 1,
                    "flip at byte {offset} recovered full state without noticing"
                );
                if k < applied.dumps.len() - 1 {
                    assert!(
                        report.torn_tail.is_some(),
                        "flip at byte {offset} dropped commits without reporting a torn tail"
                    );
                }
            }
            Err(WalError::Corrupt(msg)) => {
                assert!(
                    msg.contains("wal.0"),
                    "flip at byte {offset}: diagnostic names no file: {msg}"
                );
                assert!(
                    msg.contains("frame") || msg.contains("header"),
                    "flip at byte {offset}: diagnostic names no frame: {msg}"
                );
            }
            Err(other) => panic!("flip at byte {offset}: unexpected error kind: {other}"),
        }
    }
}

/// Injected append failures drive read-only degraded mode; `retry()`
/// restores writability and the parked frame survives a reopen.
#[test]
fn injected_append_failure_degrades_then_retry_restores_writability() {
    let plan = FaultPlan::new();
    let mem = Arc::new(MemStorage::new());
    let storage = Arc::new(FaultStorage::new(mem.clone(), plan.clone()));
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let (db, _) = DurableDatabase::open(
        storage,
        clock.clone(),
        DurabilityConfig {
            append_retries: 0,
            ..DurabilityConfig::default()
        },
    )
    .expect("open");
    clock.set(Timestamp::from_secs(1000));
    db.execute_ddl(DDL).expect("ddl");

    // Appends so far: header + DDL frame. Fail the next one.
    plan.fail_append(2, AppendFault::Error);
    clock.set(Timestamp::from_secs(1010));
    let result = db.insert("plant", ObjectId::new(1), Timestamp::from_secs(500), attrs(1));
    assert!(
        matches!(result, Err(WalError::Degraded(_))),
        "append failure must degrade, got {result:?}"
    );
    assert!(db.status().degraded.is_some());
    assert_eq!(db.status().pending, 1, "the unacknowledged frame is parked");

    // Writes are refused while degraded.
    clock.set(Timestamp::from_secs(1020));
    let refused = db.insert("plant", ObjectId::new(2), Timestamp::from_secs(600), attrs(2));
    assert!(matches!(refused, Err(WalError::Degraded(_))), "got {refused:?}");

    // The fault has passed; retry drains the parked frame.
    db.retry().expect("retry");
    assert!(db.status().degraded.is_none());
    assert_eq!(db.status().pending, 0);
    clock.set(Timestamp::from_secs(1030));
    db.insert("plant", ObjectId::new(3), Timestamp::from_secs(700), attrs(3))
        .expect("writable again");
    let expected = dump(db.db());
    drop(db);

    // Everything acknowledged (including the once-parked insert) recovers.
    let (recovered, _) = DurableDatabase::open(
        Arc::new(MemStorage::from_files(mem.snapshot())),
        Arc::new(ManualClock::new(Timestamp::from_secs(0))),
        DurabilityConfig::default(),
    )
    .expect("reopen");
    assert_eq!(dump(recovered.db()), expected);
}

/// The durable workload loader produces the same committed history as
/// the in-memory loader, and a reopen of its store reproduces it.
#[test]
fn durable_workload_load_matches_in_memory_and_survives_reopen() {
    use tempora::workload;
    let w = workload::monitoring(
        4,
        50,
        TimeDelta::from_secs(60),
        TimeDelta::from_secs(30),
        TimeDelta::from_secs(90),
        11,
    );
    let storage = MemStorage::new();
    let db = tempora::load_event_workload_durable(
        &w,
        Arc::new(storage.clone()),
        DurabilityConfig::default(),
    )
    .expect("durable load");
    let relation = w.schema.name().to_string();
    let loaded = db
        .query(&format!("SELECT FROM {relation} AS OF {}", w.events.last().expect("events").tt))
        .expect("query");
    assert_eq!(loaded.elements.len(), w.events.len(), "every event committed");
    let expected = dump(db.db());
    drop(db);

    let (recovered, report) = DurableDatabase::open(
        Arc::new(MemStorage::from_files(storage.snapshot())),
        Arc::new(ManualClock::new(Timestamp::from_secs(0))),
        DurabilityConfig::default(),
    )
    .expect("reopen");
    assert_eq!(report.frames_replayed, w.events.len() + 1, "DDL + every insert");
    assert_eq!(dump(recovered.db()), expected);
}

/// A crash between a checkpoint's atomic rename and its cleanup pass
/// leaves superseded `checkpoint.<e>`/`wal.<e>` files behind. Recovery
/// must sweep *all* of them (not just the immediately preceding epoch),
/// report the count, and restore the newest epoch's state untouched.
#[test]
fn recovery_sweeps_stale_epoch_files_left_by_a_crashed_checkpoint() {
    let storage = MemStorage::new();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let (db, _) = DurableDatabase::open(
        Arc::new(storage.clone()),
        clock.clone(),
        DurabilityConfig::default(),
    )
    .expect("open");
    clock.set(Timestamp::from_secs(1000));
    db.execute_ddl(DDL).expect("ddl");
    clock.set(Timestamp::from_secs(1010));
    db.insert("plant", ObjectId::new(1), Timestamp::from_secs(500), attrs(7))
        .expect("insert");
    let epoch0_files = storage.snapshot();

    db.checkpoint().expect("checkpoint to epoch 1");
    clock.set(Timestamp::from_secs(1020));
    db.insert("plant", ObjectId::new(2), Timestamp::from_secs(600), attrs(9))
        .expect("insert");
    let expected = dump(db.db());
    drop(db);

    // Fabricate the crash window: epoch 1 is live, but epoch 0's files
    // were never cleaned up.
    let mut files = storage.snapshot();
    for (name, bytes) in epoch0_files {
        files.entry(name).or_insert(bytes);
    }
    assert!(files.contains_key("checkpoint.0") || files.contains_key("wal.0"));
    let crashed = MemStorage::from_files(files);

    let (recovered, report) = DurableDatabase::open(
        Arc::new(crashed.clone()),
        Arc::new(ManualClock::new(Timestamp::from_secs(0))),
        DurabilityConfig::default(),
    )
    .expect("recover past the stale epoch");
    assert!(report.checkpoint_restored);
    assert!(
        report.stale_files_removed >= 1,
        "the sweep must report what it deleted: {report}"
    );
    assert_eq!(dump(recovered.db()), expected, "state untouched by the sweep");
    let mut names: Vec<String> = crashed.snapshot().keys().cloned().collect();
    names.sort();
    assert_eq!(
        names,
        vec!["checkpoint.1".to_string(), "wal.1".to_string()],
        "only the live epoch survives"
    );
}

// ---------------------------------------------------------------------------
// Acknowledgement implies durability, with concurrent writers.

/// Seed of the concurrent acknowledgement test; every thread's op mix
/// derives from it.
const ACK_SEED: u64 = 0x5eed_0009;
const ACK_THREADS: u64 = 8;
const ACK_OPS: u64 = 200;
/// The op after which thread 0 checkpoints, while the others keep writing.
const ACK_CHECKPOINT_AT: u64 = ACK_OPS / 2;

/// The synced watermark: `(epoch, length)` of the log as it stood when
/// the latest successful sync began. Every byte below it is durable.
type Watermark = (u64, usize);

#[derive(Default)]
struct SyncLedger {
    synced: Watermark,
    /// Files as they were when removed (a checkpoint sweeps the old epoch).
    removed: std::collections::BTreeMap<String, Vec<u8>>,
}

/// [`MemStorage`] that records the synced watermark and keeps the bytes of
/// every file it removes, so any crash image of the run can be rebuilt.
#[derive(Clone, Default)]
struct WatermarkStorage {
    inner: MemStorage,
    ledger: Arc<std::sync::Mutex<SyncLedger>>,
}

struct WatermarkFile {
    inner: Box<dyn LogFile>,
    epoch: Option<u64>,
    ledger: Arc<std::sync::Mutex<SyncLedger>>,
}

impl LogFile for WatermarkFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(bytes)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        let len = usize::try_from(self.inner.len()?).expect("small log");
        self.inner.sync()?;
        if let Some(epoch) = self.epoch {
            let mut ledger = self.ledger.lock().expect("ledger");
            ledger.synced = ledger.synced.max((epoch, len));
        }
        Ok(())
    }
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.truncate(len)
    }
}

impl Storage for WatermarkStorage {
    fn open(&self, name: &str) -> std::io::Result<Box<dyn LogFile>> {
        Ok(Box::new(WatermarkFile {
            inner: self.inner.open(name)?,
            epoch: name.strip_prefix("wal.").and_then(|e| e.parse().ok()),
            ledger: Arc::clone(&self.ledger),
        }))
    }
    fn read(&self, name: &str) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_atomic(name, bytes)
    }
    fn remove(&self, name: &str) -> std::io::Result<()> {
        if let Some(bytes) = self.inner.read(name)? {
            self.ledger
                .lock()
                .expect("ledger")
                .removed
                .insert(name.to_string(), bytes);
        }
        self.inner.remove(name)
    }
    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
}

impl WatermarkStorage {
    fn watermark(&self) -> Watermark {
        self.ledger.lock().expect("ledger").synced
    }

    /// The store a crash at `mark` leaves behind: that epoch's checkpoint
    /// and its log cut at the watermark.
    fn crash_image(&self, (epoch, len): Watermark) -> MemStorage {
        let mut all = self.ledger.lock().expect("ledger").removed.clone();
        all.extend(self.inner.snapshot());
        let mut files = std::collections::BTreeMap::new();
        let mut wal = all[&format!("wal.{epoch}")].clone();
        wal.truncate(len);
        files.insert(format!("wal.{epoch}"), wal);
        if let Some(checkpoint) = all.get(&format!("checkpoint.{epoch}")) {
            files.insert(format!("checkpoint.{epoch}"), checkpoint.clone());
        }
        MemStorage::from_files(files)
    }
}

/// One acknowledged write and the watermark read right after its
/// acknowledgement.
#[derive(Debug, Clone)]
struct Ack {
    thread: u64,
    op: u64,
    statement: String,
    /// The element that must be current (insert, update) or deleted.
    element: ElementId,
    deleted: bool,
    watermark: Watermark,
}

/// xorshift64*: a seeded, dependency-free draw.
fn draw(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// One writer: 80 % INSERT, 10 % UPDATE, 10 % DELETE of its own live
/// elements, recording every acknowledgement with the watermark it saw.
fn ack_writer(db: &DurableDatabase, storage: &WatermarkStorage, thread: u64) -> Vec<Ack> {
    let mut rng = ACK_SEED ^ (thread + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut live: Vec<ElementId> = Vec::new();
    let mut acks = Vec::new();
    for op in 0..ACK_OPS {
        if thread == 0 && op == ACK_CHECKPOINT_AT {
            db.checkpoint().expect("checkpoint mid-run");
        }
        let roll = draw(&mut rng) % 100;
        let vt = Timestamp::from_secs((draw(&mut rng) % 2_400) as i64);
        let reading = draw(&mut rng) % 97;
        let target = (!live.is_empty()).then(|| (draw(&mut rng) % live.len() as u64) as usize);
        let statement = match target {
            Some(i) if roll >= 90 => format!("DELETE FROM plant ELEMENT {}", live[i].raw()),
            Some(i) if roll >= 80 => format!(
                "UPDATE plant ELEMENT {} VALID {vt} SET reading = {reading}",
                live[i].raw()
            ),
            _ => format!(
                "INSERT INTO plant OBJECT {} VALID {vt} SET reading = {reading}",
                thread * 1_000 + op
            ),
        };
        let outcome = db.execute(&statement);
        let watermark = storage.watermark();
        let (element, deleted) = match (outcome, target) {
            (Ok(ExecOutcome::Inserted(id)), _) => {
                live.push(id);
                (id, false)
            }
            (Ok(ExecOutcome::Updated(new)), Some(i)) => {
                live[i] = new;
                (new, false)
            }
            (Ok(ExecOutcome::Deleted(_)), Some(i)) => (live.swap_remove(i), true),
            (other, _) => panic!(
                "seed {ACK_SEED:#x}: thread {thread} op {op}: {statement}: {other:?}"
            ),
        };
        acks.push(Ack {
            thread,
            op,
            statement,
            element,
            deleted,
            watermark,
        });
    }
    acks
}

/// Eight writers commit through `execute` under fsync `always` while one
/// of them checkpoints mid-run. Every acknowledgement records the synced
/// watermark it saw; a crash at that watermark must recover the
/// acknowledged write, and must recover exactly a committed prefix: the
/// final database's transaction-time prefix at the last replayed stamp,
/// holding every complete frame below the cut.
#[test]
fn concurrent_acknowledgements_survive_a_crash_at_their_watermark() {
    use tempora::design::dump::dump_snapshot;
    use tempora::wal::{frame::scan, WalRecord};

    let storage = WatermarkStorage::default();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(1_000)));
    let (db, _) = DurableDatabase::open(
        Arc::new(storage.clone()),
        clock,
        DurabilityConfig::default(),
    )
    .expect("open");
    db.execute_ddl(DDL).expect("ddl");
    let acks: Vec<Ack> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..ACK_THREADS)
            .map(|t| {
                let (db, storage) = (&db, &storage);
                s.spawn(move || ack_writer(db, storage, t))
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("writer thread"))
            .collect()
    });
    assert_eq!(db.status().epoch, 1, "the mid-run checkpoint happened");

    // Sample watermarks: every thread's first acknowledgement, and enough
    // of the rest, evenly spread, for at least 64 distinct crash points.
    let mut marks: Vec<Watermark> = acks.iter().map(|a| a.watermark).collect();
    marks.sort_unstable();
    marks.dedup();
    let stride = (marks.len() / 96).max(1);
    let mut sampled: Vec<Watermark> = marks.iter().copied().step_by(stride).collect();
    sampled.extend(acks.iter().filter(|a| a.op == 0).map(|a| a.watermark));
    sampled.sort_unstable();
    sampled.dedup();

    for &mark in &sampled {
        let why = |ack: Option<&Ack>, what: String| match ack {
            Some(a) => format!(
                "seed {ACK_SEED:#x}: thread {} op {} ({}) acknowledged at watermark {mark:?}: {what}",
                a.thread, a.op, a.statement
            ),
            None => format!("seed {ACK_SEED:#x}: crash at watermark {mark:?}: {what}"),
        };
        let image = storage.crash_image(mark);
        let (recovered, report) = DurableDatabase::open(
            Arc::new(image.clone()),
            Arc::new(ManualClock::new(Timestamp::from_secs(0))),
            DurabilityConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{}", why(None, format!("recovery failed: {e}"))));

        // Acknowledged at or below the cut ⇒ recovered (a later write of
        // the same thread may have deleted it since).
        for ack in acks.iter().filter(|a| a.watermark <= mark) {
            let state = recovered
                .db()
                .with_relation("plant", |rel| rel.relation().get(ack.element).map(|e| e.tt_end))
                .flatten();
            match state {
                Some(tt_end) if tt_end.is_some() || !ack.deleted => {}
                other => panic!("{}", why(Some(ack), format!("recovered as {other:?}"))),
            }
        }

        // The cut recovers exactly its complete frames, and they form the
        // final database's transaction-time prefix.
        let wal = image.read(&format!("wal.{}", mark.0)).expect("read").expect("wal");
        let frames = scan(&wal).expect("scan").frames;
        assert_eq!(
            report.frames_replayed,
            frames.len(),
            "{}",
            why(None, "not every complete frame was replayed".into())
        );
        let pin = recovered.clock().last_tick();
        if let Some(last) = frames.last() {
            let tt = WalRecord::decode(&last.payload).expect("decode").tt();
            if tt.is_some() {
                assert_eq!(tt, Some(pin), "{}", why(None, "pin is not the last frame".into()));
            }
        }
        assert_eq!(
            dump(recovered.db()),
            dump_snapshot(&db.db().snapshot_at(pin)),
            "{}",
            why(None, format!("not the committed prefix at {pin}"))
        );
    }
    assert!(sampled.len() >= 64, "only {} distinct watermarks", sampled.len());
}
