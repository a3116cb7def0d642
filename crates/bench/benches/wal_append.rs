//! WAL append throughput under the three fsync policies — the price of
//! durability per acknowledged insert.
//!
//! `always` pays one fsync per commit for a lone writer (the safe
//! default), `group:N` amortizes the barrier over N commits, and `never`
//! measures the pure logging overhead (frame encode + buffered write).
//! `fsync_always_8_writers` is `always` under concurrency: eight threads
//! commit at once and share barriers, reported as aggregate throughput.
//! Real directories, so the `always`/`group` numbers include genuine disk
//! barriers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tempora::prelude::*;
use tempora::wal::{DirStorage, DurabilityConfig, DurableDatabase, FsyncPolicy};

const DDL: &str =
    "CREATE TEMPORAL RELATION plant (sensor KEY, reading VARYING) AS EVENT WITH RETROACTIVE";

fn open(dir: &std::path::Path, policy: FsyncPolicy) -> (DurableDatabase, Arc<ManualClock>) {
    let _ = std::fs::remove_dir_all(dir);
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let (db, _) = DurableDatabase::open(
        Arc::new(DirStorage::new(dir)),
        clock.clone(),
        DurabilityConfig::with_fsync(policy),
    )
    .expect("open bench store");
    clock.set(Timestamp::from_secs(1_000));
    db.execute_ddl(DDL).expect("ddl");
    (db, clock)
}

fn bench_wal_append(c: &mut Criterion) {
    let base = std::env::temp_dir().join("tempora-bench-wal");
    let policies = [
        ("fsync_always", FsyncPolicy::Always),
        ("fsync_group_32", FsyncPolicy::GroupCommit(32)),
        ("fsync_never", FsyncPolicy::Never),
    ];

    let mut group = c.benchmark_group("wal_append");
    for (name, policy) in policies {
        let dir = base.join(name);
        let (db, clock) = open(&dir, policy);
        let mut tick = 1_000_i64;
        group.bench_function(name, |b| {
            b.iter(|| {
                tick += 1;
                clock.set(Timestamp::from_secs(tick));
                let id = db
                    .insert(
                        "plant",
                        ObjectId::new((tick % 64) as u64),
                        Timestamp::from_secs(tick - 500),
                        vec![(AttrName::new("reading"), Value::Int(tick % 97))],
                    )
                    .expect("durable insert");
                black_box(id)
            });
        });
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
    concurrent_always(&base.join("fsync_always_8_writers"));
}

/// Eight writers inserting for a fixed window under `always`; prints the
/// aggregate cost per acknowledged insert and inserts/s.
fn concurrent_always(dir: &std::path::Path) {
    const WRITERS: u64 = 8;
    const WINDOW: Duration = Duration::from_secs(3);
    let (db, _clock) = open(dir, FsyncPolicy::Always);
    let start = Instant::now();
    let inserts: u64 = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = &db;
                s.spawn(move || {
                    let mut n = 0_u64;
                    while start.elapsed() < WINDOW {
                        db.insert(
                            "plant",
                            ObjectId::new(w),
                            Timestamp::from_secs(500),
                            vec![(AttrName::new("reading"), Value::Int((n % 97) as i64))],
                        )
                        .expect("durable insert");
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        writers.into_iter().map(|h| h.join().expect("writer")).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{:<50} {:>14.0} ns/insert aggregate ({inserts} inserts, {WRITERS} writers, ~{:.1} k inserts/s)",
        "wal_append/fsync_always_8_writers",
        secs * 1e9 / inserts as f64,
        inserts as f64 / secs / 1e3
    );
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

criterion_group!(benches, bench_wal_append);
criterion_main!(benches);
