//! Runtime semantics of the process-global recorder, exercised through
//! real storage traffic: disabled mode freezes every instrument, `reset`
//! clears the registry, and snapshots taken *while* the shard worker pool
//! is checking a batch are internally consistent, served probes move
//! the read-path instruments by exactly what their responses report, and
//! concurrent durable writes move the WAL stage instruments consistently.
//!
//! Like `obs_differential`, this is a dedicated binary with a single
//! `#[test]`: `set_enabled` and `reset` are process-global, so the
//! sections below run sequentially rather than as parallel test threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tempora::prelude::*;
use tempora::serve::handle_request;
use tempora::wal::{DurabilityConfig, DurableDatabase, MemStorage};

fn conforming_batch(n: usize, origin: Timestamp) -> Vec<BatchRecord> {
    (0..n)
        .map(|i| {
            BatchRecord::new(
                ObjectId::new(u64::try_from(i % 16).expect("small")),
                origin + TimeDelta::from_secs(-(i64::try_from(i).expect("small") % 400) - 1),
            )
        })
        .collect()
}

fn retro_relation(shards: usize, origin: Timestamp) -> TemporalRelation {
    let schema = RelationSchema::builder("runtime", Stamping::Event)
        .event_spec(EventSpec::Retroactive)
        .build()
        .expect("satisfiable schema");
    let clock = Arc::new(ManualClock::new(origin));
    TemporalRelation::new(schema, clock).with_ingest_shards(shards)
}

#[test]
fn recorder_runtime_semantics() {
    let origin = Timestamp::from_secs(1_000_000);

    // --- Section 1: an instrumented parallel batch moves the metrics the
    // observability docs promise (the PR's acceptance criterion).
    tempora::obs::reset();
    let mut rel = retro_relation(4, origin);
    let report = rel.apply_batch(conforming_batch(800, origin));
    assert!(report.all_accepted());
    assert!(report.parallel);
    let snap = tempora::obs::snapshot();
    assert_eq!(
        snap.counter_labelled("tempora_ingest_records_total", "accepted"),
        Some(800)
    );
    assert_eq!(snap.counter_labelled("tempora_ingest_batches_total", "parallel"), Some(1));
    for stage in ["stamp", "check", "apply"] {
        let hist = snap
            .histogram_labelled("tempora_ingest_stage_seconds", stage)
            .unwrap_or_else(|| panic!("stage {stage} histogram missing"));
        assert_eq!(hist.count, 1, "stage {stage} records once per batch");
    }
    assert!(
        snap.histogram_count("tempora_ingest_shard_check_seconds") >= 4,
        "one shard-check sample per worker"
    );
    assert!(snap.counter_total("tempora_check_compiled_hits_total") >= 800);
    assert!(
        tempora::obs::recent_traces(8).iter().any(|e| e.name == "apply-batch"),
        "the batch span is in the trace buffer"
    );

    // --- Section 2: with the recorder disabled, the same traffic moves
    // nothing — counters, histograms, and the trace buffer all stay put.
    tempora::obs::reset();
    tempora::obs::set_enabled(false);
    let mut rel = retro_relation(4, origin);
    let report = rel.apply_batch(conforming_batch(400, origin));
    assert!(report.all_accepted(), "disabled recorder must not affect admission");
    tempora::obs::set_enabled(true);
    let snap = tempora::obs::snapshot();
    assert_eq!(snap.counter_total("tempora_ingest_records_total"), 0);
    assert_eq!(snap.histogram_count("tempora_ingest_stage_seconds"), 0);
    assert!(tempora::obs::recent_traces(64).is_empty());

    // --- Section 3: snapshots racing the shard worker pool are atomic —
    // every histogram sample satisfies count == Σ buckets even while the
    // checkers are recording into it.
    tempora::obs::reset();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = 0_u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = tempora::obs::snapshot();
                for hist in &snap.histograms {
                    let bucketed: u64 = hist.buckets.iter().sum();
                    assert_eq!(
                        hist.count, bucketed,
                        "torn snapshot of {} ({:?})",
                        hist.name, hist.label
                    );
                }
                snapshots += 1;
            }
            snapshots
        })
    };
    for round in 0..20 {
        let mut rel = retro_relation(1 + round % 6, origin);
        let report = rel.apply_batch(conforming_batch(600, origin));
        assert!(report.all_accepted());
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().expect("snapshot reader");
    assert!(snapshots > 0, "the reader raced at least one snapshot");

    // --- Section 4: served probes export the read-path instruments. The
    // executor's examined/returned counters add up to exactly the stats
    // lines the responses carried, per strategy, and every memo miss is
    // one timed capture.
    tempora::obs::reset();
    let (db, _) = DurableDatabase::open(
        Arc::new(MemStorage::new()),
        Arc::new(ManualClock::new(origin)),
        DurabilityConfig::default(),
    )
    .expect("open");
    db.execute_ddl("CREATE TEMPORAL RELATION probe (k KEY, r VARYING) AS EVENT WITH RETROACTIVE")
        .expect("ddl");
    let report = db
        .apply_batch("probe", conforming_batch(3_000, origin))
        .expect("batch");
    assert!(report.all_accepted());
    let vt = |i: i64| (origin - TimeDelta::from_secs(i)).to_string();
    let requests = [
        format!("SELECT FROM probe AT {}", vt(1)),
        format!("SELECT FROM probe AT {}", vt(17)),
        "SELECT FROM probe HISTORY OF 3".to_string(),
        "SELECT FROM probe".to_string(),
        format!("SELECT FROM probe AT {}", vt(5_000)),
    ];
    let mut served: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for (i, tql) in requests.iter().enumerate() {
        if i == 3 {
            // A write between reads: the next read misses the memo.
            db.execute(&format!("INSERT INTO probe OBJECT 1 VALID {}", vt(2)))
                .expect("insert");
        }
        let response = handle_request(&db, tql);
        let stats = response.lines().nth(1).expect("stats line");
        let (strategy, counts) = stats.split_once(": ").expect("strategy: counts");
        let words: Vec<&str> = counts.split_whitespace().collect();
        let entry = served.entry(strategy.to_string()).or_default();
        entry.0 += words[1].parse::<u64>().expect("examined");
        entry.1 += words[3].parse::<u64>().expect("returned");
    }
    let snap = tempora::obs::snapshot();
    // 3000 records cycle through 400 valid times: eight share each probed
    // instant, and the far probe finds none.
    assert_eq!(served["point-probe"], (16, 16));
    for (strategy, (examined, returned)) in &served {
        assert_eq!(
            snap.counter_labelled("tempora_query_examined_total", strategy),
            Some(*examined),
            "{strategy} examined"
        );
        assert_eq!(
            snap.counter_labelled("tempora_query_returned_total", strategy),
            Some(*returned),
            "{strategy} returned"
        );
    }
    assert_eq!(
        snap.counter_total("tempora_query_examined_total"),
        served.values().map(|c| c.0).sum::<u64>()
    );
    let misses = snap.counter_total("tempora_snapshot_memo_misses_total");
    assert_eq!(misses, 2, "first read, and the first read after the write");
    assert_eq!(snap.counter_total("tempora_snapshot_memo_hits_total"), 3);
    assert_eq!(
        snap.histogram_count("tempora_snapshot_capture_seconds"),
        misses
    );

    // --- Section 5: concurrent durable writes export the WAL stages. Each
    // barrier is one timed fsync, and together the barriers cover every
    // appended frame exactly once, however the writers shared them.
    tempora::obs::reset();
    let (db, _) = DurableDatabase::open(
        Arc::new(MemStorage::new()),
        Arc::new(ManualClock::new(origin)),
        DurabilityConfig::default(),
    )
    .expect("open");
    db.execute_ddl("CREATE TEMPORAL RELATION commits (k KEY) AS EVENT")
        .expect("ddl");
    let before = tempora::obs::snapshot();
    std::thread::scope(|s| {
        for writer in 0..4 {
            let db = &db;
            s.spawn(move || {
                for i in 0..50 {
                    db.execute(&format!("INSERT INTO commits OBJECT {} VALID {}", writer, vt(i)))
                        .expect("durable insert");
                }
            });
        }
    });
    let after = tempora::obs::snapshot();
    let counted = |name: &str| after.counter_total(name) - before.counter_total(name);
    let timed = |name: &str| after.histogram_count(name) - before.histogram_count(name);
    let batch_sum = |snap: &tempora::obs::MetricsSnapshot| -> u64 {
        snap.histograms
            .iter()
            .filter(|h| h.name == "tempora_wal_group_commit_batch")
            .map(|h| h.sum_us)
            .sum()
    };
    let appends = counted("tempora_wal_appends_total");
    assert_eq!(appends, 200);
    assert_eq!(timed("tempora_wal_append_seconds"), appends);
    let fsyncs = counted("tempora_wal_fsyncs_total");
    assert!((1..=appends).contains(&fsyncs), "{fsyncs} barriers");
    assert_eq!(timed("tempora_wal_fsync_seconds"), fsyncs);
    assert_eq!(timed("tempora_wal_group_commit_batch"), fsyncs);
    assert_eq!(batch_sum(&after) - batch_sum(&before), appends);

    // --- Section 6: reset leaves a clean registry behind for later tests.
    tempora::obs::reset();
    assert_eq!(tempora::obs::snapshot().counter_total("tempora_ingest_records_total"), 0);
}
