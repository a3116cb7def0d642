//! `durable_commit`: two in-process writers committing DML text through
//! `DurableDatabase::execute` on a directory with fsync `always`.
//!
//! Parsing, the admission check, apply, WAL encode, append and fsync do
//! all the work and the read path does none, so a read-path change must
//! show no movement here. Two concurrent writers are where
//! cross-connection group commit has to show. The run is a series of
//! cycles on fresh directories of a fixed size, so the log each recovery
//! replays, and the memory the run holds, do not grow with throughput.

use std::sync::Arc;
use std::time::Instant;

use tempora::core::ElementId;
use tempora::design::dump::dump;
use tempora::design::ExecOutcome;
use tempora::wal::{DirStorage, DurableDatabase, Storage};

use crate::gen::{row_vt, Rng};
use crate::serve_probe::DDL;
use crate::{check_acked, checkpoint, recover, remove_dir, secs_since, Env, Pass};

/// Concurrent writer threads.
pub const WRITERS: u64 = 2;
/// Statements each writer commits per cycle.
pub const OPS_PER_WRITER: usize = 8_000;
/// Acknowledged writes per throughput window.
const WRITES_PER_WINDOW: usize = 1_000;
/// Each writer's objects start here, `1_000_000` apart.
const OBJECTS: u64 = 2_000_000;

/// Paces a workload that runs in cycles of fixed work: the first cycle
/// always runs, and another starts only while the measured time left can
/// hold one more cycle as long as the last one. The cycle count then
/// stays the same from run to run unless the program's speed changes.
#[derive(Debug)]
struct Cycles {
    end: Instant,
    hard_deadline: Instant,
    last_start: Instant,
    count: u64,
}

impl Cycles {
    /// Cycles filling `env.seconds` from now.
    fn new(env: &Env) -> Cycles {
        let now = Instant::now();
        Cycles {
            end: now + env.seconds,
            hard_deadline: env.hard_deadline,
            last_start: now,
            count: 0,
        }
    }

    /// The index of the next cycle to run, or `None` when time is up.
    fn next(&mut self) -> Option<u64> {
        let now = Instant::now();
        if self.count > 0 && (now + (now - self.last_start) > self.end || now >= self.hard_deadline)
        {
            return None;
        }
        self.last_start = now;
        self.count += 1;
        Some(self.count - 1)
    }

    /// Cycles started so far.
    fn count(&self) -> u64 {
        self.count
    }
}

/// What one writer acknowledged, for the recovery check.
#[derive(Default)]
struct Acked {
    /// Elements that must be current after recovery.
    live: Vec<ElementId>,
    /// Elements that must be deleted after recovery.
    deleted: Vec<ElementId>,
}

/// Runs one pass of `durable_commit`.
#[must_use]
pub fn run(env: &Env) -> Pass {
    let mut pass = Pass::default();
    let mut cycles = Cycles::new(env);
    while let Some(cycle) = cycles.next() {
        run_cycle(env, &mut pass, cycle);
    }
    pass.name("cycles", cycles.count() as f64, "count", 1);
    pass
}

fn run_cycle(env: &Env, pass: &mut Pass, cycle: u64) {
    let dir = env.work_dir.join(format!("durable_commit-{cycle}"));
    let t = Instant::now();
    remove_dir(&dir);
    let storage: Arc<dyn Storage> = Arc::new(DirStorage::new(&dir));
    let db = match env.open(env.storage(Arc::clone(&storage))) {
        Ok((db, _)) => db,
        Err(e) => return pass.check(false, || format!("open {}: {e}", dir.display())),
    };
    if let Err(e) = db.execute_ddl(DDL) {
        return pass.check(false, || format!("ddl: {e}"));
    }
    pass.setup_s.push(secs_since(t));

    let window = env.window();
    let start = Instant::now();
    let results: Vec<(Pass, Acked)> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = &db;
                s.spawn(move || write_loop(env, db, cycle, w, start))
            })
            .collect();
        writers
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect()
    });
    let seconds = secs_since(start);
    let mut acked = Acked::default();
    let mut records = 0;
    for (w, a) in results {
        records += w.ops as u64;
        pass.absorb(w);
        acked.live.extend(a.live);
        acked.deleted.extend(a.deleted);
    }
    pass.close_phase(seconds, WRITES_PER_WINDOW);
    pass.close_window(window, env, records);

    let before = dump(db.db());
    drop(db);
    let Some(db) = recover(env, pass, storage, &before) else {
        return;
    };
    check_acked(pass, &db, &acked.live, &acked.deleted);
    checkpoint(env, pass, &db);
    drop(db);
    remove_dir(&dir);
}

/// One writer's closed loop: 80 % `INSERT`, 10 % `UPDATE`, 10 % `DELETE`,
/// updates and deletes aimed at this writer's own acknowledged elements.
fn write_loop(
    env: &Env,
    db: &DurableDatabase,
    cycle: u64,
    writer: u64,
    start: Instant,
) -> (Pass, Acked) {
    let mut pass = Pass::default();
    let mut acked = Acked::default();
    let mut rng = Rng::new(env.seed, 10 + writer + 100 * cycle);
    let objects = OBJECTS + writer * 1_000_000;
    for n in 0..OPS_PER_WRITER as u64 {
        if Instant::now() >= env.hard_deadline {
            break;
        }
        let roll = rng.below(100);
        let reading = rng.below(1_000);
        let target = (!acked.live.is_empty()).then(|| rng.below(acked.live.len() as u64) as usize);
        let statement = match target {
            Some(i) if roll >= 90 => format!("DELETE FROM plant ELEMENT {}", acked.live[i].raw()),
            Some(i) if roll >= 80 => format!(
                "UPDATE plant ELEMENT {} VALID {} SET reading = {reading}",
                acked.live[i].raw(),
                row_vt(n)
            ),
            _ => format!(
                "INSERT INTO plant OBJECT {} VALID {} SET reading = {reading}",
                objects + n,
                row_vt(n)
            ),
        };
        let request = (writer << 48) | (cycle << 24) | n;
        let from = Instant::now();
        let outcome = {
            let _span = env.span("design.write", request);
            db.execute(&statement)
        };
        let done = Instant::now();
        let latency_us = (done - from).as_secs_f64() * 1e6;
        pass.attempted += 1;
        let ok = match (outcome, target) {
            (Ok(ExecOutcome::Inserted(id)), _) => {
                acked.live.push(id);
                true
            }
            (Ok(ExecOutcome::Updated(new)), Some(i)) => {
                acked
                    .deleted
                    .push(std::mem::replace(&mut acked.live[i], new));
                true
            }
            (Ok(ExecOutcome::Deleted(_)), Some(i)) => {
                acked.deleted.push(acked.live.swap_remove(i));
                true
            }
            (outcome, _) => {
                pass.fail(format!("{statement}: {outcome:?}"));
                false
            }
        };
        if ok {
            pass.complete(latency_us, (done - start).as_secs_f64());
        }
    }
    (pass, acked)
}
