//! `serve_probe`: served point probes on a 100k-row sensor relation while
//! a writer ingests on a fixed schedule.
//!
//! The read path does nearly all the work here — frame I/O, snapshot
//! capture behind a memo that every write invalidates, the snapshot
//! executor and render — and the WAL almost none: storage is `MemStorage`
//! so disk noise stays out. The writer uses objects and valid times no
//! probe touches, so every probe has exactly one right answer, known to
//! the generator.

use std::sync::Arc;
use std::time::Instant;

use tempora::core::ObjectId;
use tempora::design::dump::{dump, dump_snapshot, restore};
use tempora::design::DbSnapshot;
use tempora::query::{parse_tql, plan_query_annotated};
use tempora::serve::{
    handle_request, render_elements, Client, ResponseStatus, ServeConfig, Server,
};
use tempora::time::{ManualClock, Timestamp};
use tempora::wal::{DurableDatabase, MemStorage, Storage};

use crate::gen::{row_vt, side_vt, Reservoir, Rng, SensorRows};
use crate::schedule::{DueTimes, OpenLoop};
use crate::{checkpoint, recover, secs_since, Env, Ingest, Pass, PLANT};

/// Seeded rows.
pub const ROWS: usize = 100_000;
/// Distinct sensors; about four readings each, so a life-line is short.
pub const SENSORS: u64 = 25_000;
/// Distinct reading values.
pub const READINGS: u64 = 1_000;
/// Records per seeding `apply_batch`.
pub const BATCH: usize = 1_024;
/// The writer's schedule, requests per second.
pub const WRITE_RATE: u32 = 500;
/// Objects at or above this belong to the writer; probes never ask.
const WRITER_OBJECTS: u64 = 1_000_000;
/// Set-ups per untraced pass (the median is reported).
const SETUPS: usize = 5;
/// Timed reopens over the full log.
const REOPENS: usize = 9;
/// Reads per throughput window (about a second).
const READS_PER_WINDOW: usize = 1_000;
/// Served answers kept, by reservoir sampling, and replayed through
/// dump-and-restore at their pin.
const REPLAYS: usize = 4;

/// The relation: an event relation of sensor readings, retroactive only,
/// stored in the tuple store with a point index.
pub const DDL: &str =
    "CREATE TEMPORAL RELATION plant (sensor KEY, reading VARYING) AS EVENT WITH RETROACTIVE";

/// One probe and the rows that answer it.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The TQL text sent.
    pub tql: String,
    /// Rows expected in the answer, in answer order.
    pub rows: Vec<u32>,
}

/// The seeded probe mix: 70 % `AT t`, 20 % `WHERE reading = r AT t`
/// (half of them matching), 10 % `HISTORY OF k`.
pub fn next_probe(rng: &mut Rng, data: &SensorRows) -> Probe {
    let kind = rng.below(100);
    let i = rng.below(data.len() as u64);
    let row = u32::try_from(i).unwrap_or(0);
    if kind < 70 {
        Probe {
            tql: format!("SELECT FROM plant AT {}", row_vt(i)),
            rows: vec![row],
        }
    } else if kind < 90 {
        let actual = data.reading[i as usize];
        let r = if rng.below(2) == 0 {
            actual
        } else {
            (actual + 1 + rng.below(READINGS - 1)) % READINGS
        };
        Probe {
            tql: format!("SELECT FROM plant WHERE reading = {r} AT {}", row_vt(i)),
            rows: if r == actual { vec![row] } else { Vec::new() },
        }
    } else {
        let k = rng.below(data.lifeline.len() as u64);
        Probe {
            tql: format!("SELECT FROM plant HISTORY OF {k}"),
            rows: data.lifeline[k as usize].clone(),
        }
    }
}

/// Whether `elements` (the element lines of a response, as
/// `render_elements` writes them) are exactly the seeded `rows`, current.
#[must_use]
pub fn answers(elements: &str, rows: &[u32], data: &SensorRows) -> bool {
    let mut lines = elements.lines();
    for &row in rows {
        let i = row as usize;
        let head = format!(
            "[{}] vt={} tt=[",
            ObjectId::new(data.sensor[i]),
            row_vt(row.into())
        );
        let attr = format!("    reading = {}", data.reading[i]);
        let ok = lines
            .next()
            .is_some_and(|l| l.contains(&head) && l.ends_with(", ∞)"))
            && lines.next() == Some(attr.as_str());
        if !ok {
            return false;
        }
    }
    lines.next().is_none()
}

/// The element lines of a served query response body.
fn element_lines(body: &str) -> &str {
    body.split_once('\n').map_or("", |(_stats, rest)| rest)
}

struct Served {
    inner: Arc<MemStorage>,
    db: Arc<DurableDatabase>,
    server: Server,
}

fn set_up(env: &Env, data: &SensorRows, pass: &mut Pass) -> Option<Served> {
    let inner = Arc::new(MemStorage::new());
    let (db, _) = match env.open(env.storage(inner.clone() as Arc<dyn Storage>)) {
        Ok(opened) => opened,
        Err(e) => {
            pass.check(false, || format!("open: {e}"));
            return None;
        }
    };
    if let Err(e) = db.execute_ddl(DDL) {
        pass.check(false, || format!("ddl: {e}"));
        return None;
    }
    let window = env.window();
    let before = Ingest::now();
    for (b, first) in (0..ROWS).step_by(BATCH).enumerate() {
        let records = data.records(first..ROWS.min(first + BATCH));
        let n = records.len();
        let _span = env.span("design.write", b as u64);
        match db.apply_batch(PLANT, records) {
            Ok(report) => pass.check(report.accepted.len() == n, || {
                format!("seed batch {b}: {} of {n} accepted", report.accepted.len())
            }),
            Err(e) => pass.check(false, || format!("seed batch {b}: {e}")),
        }
    }
    pass.layers.ingest = Ingest::now().since(&before);
    pass.close_window(window, env, ROWS as u64);
    let db = Arc::new(db);
    match Server::start(Arc::clone(&db), "127.0.0.1:0", ServeConfig::default()) {
        Ok(server) => Some(Served { inner, db, server }),
        Err(e) => {
            pass.check(false, || format!("server start: {e}"));
            None
        }
    }
}

/// A served answer kept for the dump-and-restore replay.
struct Observed {
    pin: i64,
    tql: String,
    elements: String,
}

/// Runs one pass of `serve_probe`.
#[must_use]
pub fn run(env: &Env) -> Pass {
    let mut pass = Pass::default();
    let data = SensorRows::generate(env.seed, ROWS, SENSORS, READINGS);
    let setups = if env.traced() { 1 } else { SETUPS };
    let mut served = None;
    for _ in 0..setups {
        drop(served.take());
        let t = Instant::now();
        served = set_up(env, &data, &mut pass);
        pass.setup_s.push(secs_since(t));
    }
    let Some(Served { inner, db, server }) = served else {
        return pass;
    };
    let addr = server.local_addr().to_string();

    let window = env.window();
    let start = Instant::now();
    let deadline = start + env.seconds;
    let (reads, observed, writes, dues) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(env, &addr, &db, &data, start, deadline));
        let writer = s.spawn(|| write_loop(&addr, start, deadline));
        let (reads, observed) = reader.join().expect("reader thread panicked");
        let (writes, dues) = writer.join().expect("writer thread panicked");
        (reads, observed, writes, dues)
    });
    let seconds = secs_since(start);
    let acked_writes = writes.ops;
    pass.close_window(window, env, acked_writes as u64);
    pass.absorb(reads);
    pass.close_phase(seconds, READS_PER_WINDOW);
    report_writer(&mut pass, &dues, &writes);
    pass.absorb_checks(writes);
    drop(server);

    replay_at_pins(&mut pass, &db, &observed);
    recover_all(env, &mut pass, db, &inner, acked_writes as usize);
    pass
}

/// The open-loop writer's figures, under their workload names: latency
/// from the due time, the generator's lateness, and its throughput.
fn report_writer(pass: &mut Pass, dues: &DueTimes, writes: &Pass) {
    pass.name_timing("write", &dues.latency_us);
    pass.name_timing("writer_lateness", &dues.lateness_us);
    let per_s = writes.ops / pass.op_seconds.max(1e-9);
    pass.name("writes_per_s", per_s, "1/s", writes.ops as usize);
    pass.name(
        "write_failed",
        writes.failed as f64,
        "count",
        writes.attempted as usize,
    );
}

fn read_loop(
    env: &Env,
    addr: &str,
    db: &DurableDatabase,
    data: &SensorRows,
    start: Instant,
    deadline: Instant,
) -> (Pass, Vec<Observed>) {
    let mut pass = Pass::default();
    let mut observed = Reservoir::new(REPLAYS, Rng::new(env.seed, 3));
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            pass.check(false, || format!("reader connect: {e}"));
            return (pass, observed.into_items());
        }
    };
    let mut rng = Rng::new(env.seed, 2);
    let mut last_snapshot = None;
    let mut request = 0_u64;
    while Instant::now() < deadline {
        let probe = next_probe(&mut rng, data);
        let from = Instant::now();
        let response = {
            let _span = env.span("serve.round_trip", request);
            client.request(&probe.tql)
        };
        let latency_us = from.elapsed().as_secs_f64() * 1e6;
        pass.attempted += 1;
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                pass.fail(format!("read io: {e}"));
                break;
            }
        };
        let ResponseStatus::Ok { pin: Some(pin) } = response.status else {
            pass.fail(format!(
                "{}: {:?} {}",
                probe.tql, response.status, response.detail
            ));
            continue;
        };
        pass.complete(latency_us, secs_since(start));
        let elements = element_lines(&response.body);
        pass.check(answers(elements, &probe.rows, data), || {
            format!("{}: wrong answer:\n{elements}", probe.tql)
        });
        if env.traced() {
            drive_stages(
                env,
                db,
                &probe.tql,
                request,
                elements,
                &mut last_snapshot,
                &mut pass,
            );
        }
        observed.offer(|| Observed {
            pin: pin.micros(),
            tql: probe.tql,
            elements: elements.to_string(),
        });
        request += 1;
    }
    (pass, observed.into_items())
}

/// The traced pass's in-process drive of each served request: the same
/// text through `handle_request`, then through the stage functions one by
/// one, against the same database. `last` is the snapshot the previous
/// request's `latest_snapshot` call returned.
fn drive_stages(
    env: &Env,
    db: &DurableDatabase,
    tql: &str,
    request: u64,
    served: &str,
    last: &mut Option<Arc<DbSnapshot>>,
    pass: &mut Pass,
) {
    let Some(tracer) = env.tracer.as_deref() else {
        return;
    };
    let _root = tracer.span("serve.in_process", request);
    let response = {
        let _span = tracer.child("serve.dispatch");
        handle_request(db, tql)
    };
    let dispatched = response
        .split_once('\n')
        .map_or("", |(_, body)| element_lines(body));
    pass.check(dispatched == served, || {
        format!("{tql}: in-process dispatch differs from the served answer")
    });

    let snap = {
        let _span = tracer.child("design.latest_snapshot");
        db.db().latest_snapshot()
    };
    pass.layers.memo_calls += 1;
    if last.as_ref().is_some_and(|prev| Arc::ptr_eq(prev, &snap)) {
        pass.layers.memo_hits += 1;
    } else {
        // A new Arc means a write invalidated the memo: time what the
        // capture behind it costs.
        let _span = tracer.child("design.snapshot_capture");
        std::hint::black_box(db.db().snapshot());
    }
    *last = Some(Arc::clone(&snap));

    let statement = {
        let _span = tracer.child("query.parse");
        parse_tql(tql)
    };
    let Ok(statement) = statement else {
        pass.check(false, || format!("{tql}: parse failed in process"));
        return;
    };
    let Some(rel) = snap.relation(&statement.relation) else {
        pass.check(false, || format!("{tql}: relation missing from snapshot"));
        return;
    };
    {
        let _span = tracer.child("query.plan");
        std::hint::black_box(plan_query_annotated(rel.schema(), statement.query));
    }
    let mut result = {
        let _span = tracer.child("query.execute");
        rel.execute(statement.query)
    };
    if !statement.filters.is_empty() {
        result.elements.retain(|e| statement.matches(e));
        result.stats.returned = result.elements.len();
    }
    pass.layers.examined += result.stats.examined as u64;
    pass.layers.returned += result.stats.returned as u64;
    let rendered = {
        let _span = tracer.child("serve.render");
        render_elements(&result)
    };
    pass.layers.response_bytes.push(rendered.len() as f64);
    pass.check(rendered == served, || {
        format!("{tql}: stage-by-stage answer differs from the served answer")
    });
}

fn write_loop(addr: &str, start: Instant, deadline: Instant) -> (Pass, DueTimes) {
    let mut pass = Pass::default();
    let mut dues = DueTimes::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            pass.check(false, || format!("writer connect: {e}"));
            return (pass, dues);
        }
    };
    let schedule = OpenLoop::new(start, WRITE_RATE);
    for k in 0_u32.. {
        if schedule.due(k) >= deadline {
            break;
        }
        let due = schedule.wait_for(k);
        let statement = format!(
            "INSERT INTO plant OBJECT {} VALID {} SET reading = {}",
            WRITER_OBJECTS + u64::from(k),
            side_vt(k.into()),
            k % 1_000
        );
        let sent = Instant::now();
        let response = client.request(&statement);
        let done = Instant::now();
        pass.attempted += 1;
        match response {
            Ok(r) if matches!(r.status, ResponseStatus::Ok { .. }) => {
                dues.record(due, sent, done);
                pass.ops += 1.0;
            }
            Ok(r) => pass.fail(format!("write {k}: {:?} {}", r.status, r.detail)),
            Err(e) => {
                pass.fail(format!("write io: {e}"));
                break;
            }
        }
    }
    (pass, dues)
}

/// Replays the seeded sample of served answers through
/// `snapshot_at(pin)` → `dump_snapshot` → `restore` → `query`: the element
/// lines must match byte for byte.
fn replay_at_pins(pass: &mut Pass, db: &DurableDatabase, observed: &[Observed]) {
    if observed.is_empty() {
        pass.check(false, || "no read was answered".to_string());
        return;
    }
    for o in observed {
        let snap = db.db().snapshot_at(Timestamp::from_micros(o.pin));
        let restored = restore(
            Arc::new(ManualClock::new(Timestamp::from_secs(0))),
            &dump_snapshot(&snap),
        );
        let replayed = restored
            .map_err(|e| e.to_string())
            .and_then(|r| r.query(&o.tql).map_err(|e| e.to_string()));
        match replayed {
            Ok(result) => pass.check(render_elements(&result) == o.elements, || {
                format!(
                    "{} at pin {}: replay differs from the served answer",
                    o.tql, o.pin
                )
            }),
            Err(e) => pass.check(false, || {
                format!("replay of {} at pin {}: {e}", o.tql, o.pin)
            }),
        }
    }
}

/// Drops the database and reopens its log: the timed recovery, and
/// every acknowledged write must be there. The last reopen checkpoints.
fn recover_all(
    env: &Env,
    pass: &mut Pass,
    db: Arc<DurableDatabase>,
    inner: &Arc<MemStorage>,
    acked: usize,
) {
    let before = dump(db.db());
    drop(db);
    for r in 0..REOPENS {
        let Some(db) = recover(env, pass, inner.clone(), &before) else {
            return;
        };
        if r + 1 == REOPENS {
            let writer_rows = db.db().snapshot().relation(PLANT).map_or(0, |rel| {
                rel.iter_pinned()
                    .filter(|e| e.object.raw() >= WRITER_OBJECTS)
                    .count()
            });
            pass.check(writer_rows == acked, || {
                format!("{writer_rows} writer rows recovered, {acked} acknowledged")
            });
            checkpoint(env, pass, &db);
        }
    }
}
