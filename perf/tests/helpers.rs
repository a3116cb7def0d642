//! Tests for the benchmark's own helpers: order statistics, span self
//! time, ratios with their bases, open-loop accounting, the timing
//! storage wrapper, and the answer check.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tempora::serve::handle_request;
use tempora::time::{ManualClock, Timestamp};
use tempora::wal::{DurabilityConfig, DurableDatabase, MemStorage, Storage};

use tempora_perf::gen::{Reservoir, Rng, SensorRows};
use tempora_perf::report::{self, END_TO_END, PER_LAYER};
use tempora_perf::schedule::{DueTimes, OpenLoop};
use tempora_perf::stats::{quantile, summarize, tail, windows, Ratio, MIN_BEYOND, TAIL_WINDOW};
use tempora_perf::timing::{TimingStorage, WalCounts, Window};
use tempora_perf::trace::{lock_waits_ns, self_times_ns, Span, Tracer};
use tempora_perf::{serve_probe, Pass};

/// Tests that read the process-wide WAL counters run one at a time.
static REGISTRY: Mutex<()> = Mutex::new(());

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn quantiles_use_the_nearest_rank() {
    let v = ascending(100);
    assert_eq!(quantile(&v, 0.5), Some(50.0));
    assert_eq!(quantile(&v, 0.99), Some(99.0));
    assert_eq!(quantile(&v, 1.0), Some(100.0));
    assert_eq!(quantile(&v, 0.0), Some(1.0));
    assert_eq!(quantile(&[], 0.5), None);
}

#[test]
fn the_tail_keeps_ten_samples_beyond_it() {
    // 1000 samples support p99 exactly: ranks 991..=1000 lie beyond.
    let t = tail(&ascending(1000), 0.99).expect("enough samples");
    assert_eq!((t.value, t.beyond), (990.0, MIN_BEYOND));
    assert!((t.q - 0.99).abs() < 1e-12);

    // 100 samples do not: the tail drops to p90, the highest quantile
    // with ten samples beyond.
    let t = tail(&ascending(100), 0.99).expect("enough samples");
    assert_eq!((t.value, t.beyond), (90.0, MIN_BEYOND));
    assert!((t.q - 0.90).abs() < 1e-12);

    // Ten samples leave nothing to report.
    assert_eq!(tail(&ascending(10), 0.99), None);
    assert!(tail(&ascending(11), 0.99).is_some());

    let shuffled = [
        5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0,
    ];
    let s = summarize(&shuffled, 0.99).expect("twelve samples");
    assert_eq!((s.n, s.p50, s.tail.value, s.windows), (12, 6.0, 2.0, 1));
}

#[test]
fn a_long_series_reports_the_median_window_tail() {
    // Three windows of 1000; the middle one carries a burst of slow
    // operations, which moves its own p99 but not the median of three.
    let mut series: Vec<f64> = Vec::new();
    for w in 0..3 {
        series.extend((1..=TAIL_WINDOW).map(|i| {
            let base = i as f64 + w as f64;
            if w == 1 && i > 900 {
                base * 100.0
            } else {
                base
            }
        }));
    }
    let s = summarize(&series, 0.99).expect("3000 samples");
    assert_eq!(s.windows, 3);
    assert_eq!(s.tail.value, 992.0);
    assert_eq!(s.tail.beyond, MIN_BEYOND);
    assert_eq!(s.n, 3000);

    // Below two windows the whole series is one window.
    let short: Vec<f64> = (1..=1500).map(f64::from).collect();
    let s = summarize(&short, 0.99).expect("1500 samples");
    assert_eq!((s.windows, s.tail.value), (1, 1485.0));
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "t",
        request: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span(1, None, 0, 100),
        // Overlapping children count once: 10..40.
        span(2, Some(1), 10, 30),
        span(3, Some(1), 20, 40),
        // Only the part inside the parent counts: 90..100.
        span(4, Some(1), 90, 120),
        // A grandchild is charged to its own parent, not to span 1.
        span(5, Some(2), 12, 18),
    ];
    let self_ns = self_times_ns(&spans);
    assert_eq!(self_ns[&1], 100 - 30 - 10);
    assert_eq!(self_ns[&2], 20 - 6);
    assert_eq!(self_ns[&3], 20);
    assert_eq!(self_ns[&5], 6);
}

#[test]
fn tracer_nests_spans_on_one_thread_and_inherits_the_request() {
    let tracer = Tracer::new();
    {
        let _root = tracer.span("root", 7);
        let _child = tracer.child("child");
        let _grandchild = tracer.child("grandchild");
    }
    let other = tracer.child("orphan");
    drop(other);
    let spans = tracer.spans();
    let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
    let (root, child, grandchild) = (by_name("root"), by_name("child"), by_name("grandchild"));
    assert_eq!(root.parent, None);
    assert_eq!(child.parent, Some(root.id));
    assert_eq!(grandchild.parent, Some(child.id));
    assert_eq!((child.request, grandchild.request), (7, 7));
    assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
    assert_eq!(by_name("orphan").parent, None);
    assert_eq!(by_name("orphan").request, 0);
}

#[test]
fn lock_waits_follow_the_hand_over() {
    let named = |id, parent, start, end| Span {
        name: "w",
        ..span(id, parent, start, end)
    };
    let writes = [
        named(1, None, 0, 100),
        named(2, None, 10, 180),
        named(3, None, 300, 350),
    ];
    let log_calls = [
        // Write 1 holds the lock until its fsync ends at 100.
        named(11, Some(1), 20, 30),
        named(12, Some(1), 30, 100),
        // Write 2 called at 10, got the lock at 100.
        named(21, Some(2), 120, 180),
        // Write 3 found the lock free.
        named(31, Some(3), 310, 350),
    ];
    let mut waits = lock_waits_ns(&writes, &log_calls);
    waits.sort_unstable();
    assert_eq!(waits, vec![(1, 0), (2, 90), (3, 0)]);
}

#[test]
fn throughput_and_median_latency_are_the_median_over_windows() {
    // Ten operations a second taking 100 µs, except a stalled stretch
    // whose operations take 900 µs: the window that spans the stall reads
    // slow, the medians over windows do not.
    let mut done: Vec<(f64, f64)> = (1..=30).map(|i| (f64::from(i) * 0.1, 100.0)).collect();
    done.extend((31..=40).map(|i| (f64::from(i) * 0.1 + 2.0, 900.0)));
    done.extend((41..=50).map(|i| (f64::from(i) * 0.1 + 2.0, 100.0)));
    done.push((7.5, 100.0));
    let stats = windows(&done, 10);
    assert_eq!(stats.len(), 5, "{stats:?}");
    assert!((stats[0].rate - 10.0).abs() < 1e-9);
    assert!((stats[3].rate - 10.0 / 3.0).abs() < 1e-9);
    assert_eq!(stats[3].p50, 900.0);
    assert_eq!(stats[4].p50, 100.0);

    // Completions arrive per worker, out of time order; the pass puts
    // them in completion order.
    let mut pass = Pass::default();
    for &(at, latency) in done.iter().rev() {
        pass.complete(latency, at);
    }
    pass.close_phase(7.5, 10);
    assert!((pass.ops_per_s() - 10.0).abs() < 1e-9);
    assert_eq!(pass.op_p50_us(), 100.0);
    assert!(pass.op_done.is_empty());
    assert_eq!(pass.op_latency_us[35], 900.0);
    assert_eq!(pass.op_latency_us.len(), 51);
    // Without a full window: the plain mean rate and the plain median.
    let mut short = Pass::default();
    for latency in [30.0, 10.0, 20.0] {
        short.complete(latency, 0.5);
    }
    short.close_phase(2.0, 10);
    assert_eq!(short.ops_per_s(), 1.5);
    assert_eq!(short.op_p50_us(), 20.0);
}

#[test]
fn the_reservoir_keeps_a_seeded_uniform_sample() {
    let sample = |seed| {
        let mut r = Reservoir::new(4, Rng::new(seed, 3));
        for i in 0..10_000_u32 {
            r.offer(|| i);
        }
        r.into_items()
    };
    let kept = sample(1);
    assert_eq!(kept.len(), 4);
    assert_eq!(kept, sample(1), "the same seed keeps the same items");
    assert_ne!(kept, sample(2));
    // Fewer items than slots: all of them, in order.
    let mut few = Reservoir::new(4, Rng::new(1, 3));
    few.offer(|| 'a');
    few.offer(|| 'b');
    assert_eq!(few.into_items(), vec!['a', 'b']);
    // Every item is equally likely to be kept: over many seeds, each
    // tenth of a 100-item stream holds about a tenth of the sample.
    let mut per_tenth = [0_u32; 10];
    for seed in 0..2_000 {
        let mut r = Reservoir::new(4, Rng::new(seed, 3));
        for i in 0..100_usize {
            r.offer(|| i);
        }
        for i in r.into_items() {
            per_tenth[i / 10] += 1;
        }
    }
    assert!(
        per_tenth.iter().all(|&n| (700..=900).contains(&n)),
        "{per_tenth:?}"
    );
}

#[test]
fn ratios_keep_their_base() {
    let r = Ratio::new(3.0, 4.0);
    assert!((r.value() - 0.75).abs() < 1e-12);
    assert_eq!(r.to_string(), "0.750000 (3 / 4)");
    assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);

    let mut pass = Pass::default();
    pass.layers.examined = 200_000;
    pass.layers.returned = 2;
    pass.layers.memo_hits = 3;
    pass.layers.memo_calls = 4;
    let values = report::per_layer(&pass, &[], 100.0);
    assert_eq!(values["query.examined_per_returned"].value, 100_000.0);
    assert_eq!(values["query.examined_per_returned"].note, "200000 / 2");
    assert_eq!(values["query.examined"].value, 200_000.0);
    assert_eq!(values["query.returned"].value, 2.0);
    assert_eq!(values["design.snapshot_memo_hit_ratio"].value, 0.75);
    assert_eq!(values["design.snapshot_memo_calls"].value, 4.0);
    // Nothing ran traced: the overhead is the whole untraced rate.
    assert_eq!(values["trace.overhead_ratio"].note, "100 / 100");
    for def in PER_LAYER {
        assert!(values.contains_key(def.name), "{} not reported", def.name);
    }
}

#[test]
fn open_loop_times_from_the_due_time_and_reports_lateness() {
    let start = Instant::now();
    let schedule = OpenLoop::new(start, 500);
    assert_eq!(schedule.due(0), start);
    assert_eq!(schedule.due(3), start + Duration::from_millis(6));

    let ms = Duration::from_millis;
    let mut dues = DueTimes::default();
    // On time: sent when due, done 1 ms later.
    dues.record(start, start, start + ms(1));
    // A stall: sent 5 ms late, done 1 ms after sending. The latency from
    // the due time charges the stall to the request.
    dues.record(start + ms(2), start + ms(7), start + ms(8));
    // Sent early (cannot be earlier than due): lateness reads 0.
    dues.record(start + ms(4), start + ms(3), start + ms(5));
    assert_eq!(dues.latency_us, vec![1000.0, 6000.0, 1000.0]);
    assert_eq!(dues.lateness_us, vec![0.0, 5000.0, 0.0]);

    let due = schedule.wait_for(1);
    assert!(Instant::now() >= due);
}

/// The same durable writes and checkpoint on a deterministic clock.
fn durable_session(storage: Arc<dyn Storage>) {
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(1_000_000_000)));
    let (db, _) = DurableDatabase::open(storage, clock, DurabilityConfig::default()).expect("open");
    db.execute_ddl(serve_probe::DDL).expect("ddl");
    let records = SensorRows::generate(9, 40, 7, 50).records(0..40);
    db.apply_batch("plant", records).expect("batch");
    db.execute("DELETE FROM plant ELEMENT 3").expect("delete");
    db.checkpoint().expect("checkpoint");
    db.execute("INSERT INTO plant OBJECT 9 VALID 2000-01-01T00:00:00 SET reading = 1")
        .expect("insert");
}

#[test]
fn the_wrapper_leaves_the_same_files_and_agrees_with_the_registry() {
    let _serial = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let plain = Arc::new(MemStorage::new());
    durable_session(plain.clone());

    let wrapped = Arc::new(MemStorage::new());
    let counts = WalCounts::new();
    let window = Window::open(&counts);
    durable_session(Arc::new(TimingStorage::new(
        wrapped.clone(),
        Tracer::new(),
        Arc::clone(&counts),
    )));
    assert_eq!(plain.snapshot(), wrapped.snapshot());

    let tally = counts.tally();
    // Two log headers, then one frame each for the DDL, the 40 records,
    // the delete and the insert; the checkpoint went through write_atomic.
    assert_eq!(tally.appends, 2 + 1 + 40 + 1 + 1);
    assert_eq!(tally.atomic_writes, 1);
    // Log headers are written and synced by file creation, which the
    // registry does not count; everything else must agree.
    let diff = window
        .close(&counts)
        .expect_err("headers are not in the registry");
    assert!(diff.contains("appends: wrapper 45, registry 43"), "{diff}");

    let window = Window::open(&counts);
    let storage = Arc::new(TimingStorage::new(
        wrapped,
        Tracer::new(),
        Arc::clone(&counts),
    ));
    let (db, report) = DurableDatabase::open(
        storage,
        Arc::new(ManualClock::new(Timestamp::from_secs(2_000_000_000))),
        DurabilityConfig::default(),
    )
    .expect("reopen");
    assert_eq!(report.frames_replayed, 1);
    db.execute("INSERT INTO plant OBJECT 9 VALID 2000-01-01T00:00:01 SET reading = 2")
        .expect("insert");
    let tally = window.close(&counts).expect("wrapper and registry agree");
    assert_eq!((tally.appends, tally.syncs), (1, 1));
    assert!(tally.read_ns > 0);
}

#[test]
fn served_answers_are_checked_against_the_generator() {
    let data = SensorRows::generate(5, 300, 20, 10);
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(1_000_000_000)));
    let (db, _) = DurableDatabase::open(
        Arc::new(MemStorage::new()),
        clock,
        DurabilityConfig::default(),
    )
    .expect("open");
    db.execute_ddl(serve_probe::DDL).expect("ddl");
    let records = data.records(0..data.len());
    db.apply_batch("plant", records).expect("seed");

    let mut rng = Rng::new(5, 2);
    let mut kinds = [0_usize; 3];
    for _ in 0..300 {
        let probe = serve_probe::next_probe(&mut rng, &data);
        let response = handle_request(&db, &probe.tql);
        let (status, body) = response.split_once('\n').expect("status line");
        assert!(status.starts_with("OK "), "{}: {status}", probe.tql);
        let elements = body.split_once('\n').map_or("", |(_, rest)| rest);
        assert!(
            serve_probe::answers(elements, &probe.rows, &data),
            "{}:\n{elements}",
            probe.tql
        );
        kinds[usize::from(probe.tql.contains("WHERE"))
            + 2 * usize::from(probe.tql.contains("HISTORY"))] += 1;
        // A wrong answer fails: drop the last element, or add a stranger.
        if !probe.rows.is_empty() {
            assert!(!serve_probe::answers(elements, &probe.rows[1..], &data));
        }
        assert!(!serve_probe::answers(
            elements,
            &[probe.rows.as_slice(), &[0]].concat(),
            &data
        ));
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "every probe kind ran: {kinds:?}"
    );
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = text.matches("\"name\":").count();
    let workloads = text.matches("\"why\":").count();
    assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            def.name, def.unit
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn the_end_to_end_metrics_are_all_reported() {
    let mut pass = Pass::default();
    for i in 1..=2000 {
        pass.complete(f64::from(i), f64::from(i) / 500.0);
    }
    pass.close_phase(4.0, 1000);
    pass.setup_s = vec![0.3, 0.1, 0.2];
    pass.recovery_s = vec![1.0];
    let values = report::end_to_end(&pass, 64.0);
    // Two windows with medians 500 and 1500: the lower median.
    assert_eq!(values["op_p50_us"].value, 500.0);
    // Two windows of 1000 with p99s 990 and 1990: the lower median.
    assert_eq!(values["op_tail_us"].value, 990.0);
    assert_eq!(values["ops_per_s"].value, 500.0);
    assert_eq!(values["setup_s"].value, 0.2);
    let line = report::json_line(true, 10, 0, END_TO_END, &values);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
    );
    for def in END_TO_END {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", def.name)));
    }
}
