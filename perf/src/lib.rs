//! The tempora performance benchmark.
//!
//! One command runs one workload against the public API of the `tempora`
//! crates, checks every answer, and prints every metric by name with its
//! unit and sample count; its last line is a JSON object for tooling. With
//! `--trace 1` the same seed and schedule run twice, untraced and traced,
//! and the traced pass yields the per-layer numbers and the tracing
//! overhead. The process pins itself to one CPU first (see
//! [`host::pin_to_one_cpu`]). See `WORKLOADS.json` for why each workload
//! exists and which end-to-end metric each layer metric should move.

pub mod durable_commit;
pub mod gen;
pub mod host;
pub mod report;
pub mod schedule;
pub mod serve_probe;
pub mod stats;
pub mod timing;
pub mod trace;

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tempora::core::ElementId;
use tempora::design::dump::dump;
use tempora::obs::MetricsSnapshot;
use tempora::wal::{DurabilityConfig, DurableDatabase, Storage, WalError};

use crate::stats::WindowStat;
use crate::timing::{TimingStorage, WalCounts, WalTally, Window};
use crate::trace::{SpanGuard, Tracer};

/// The relation every workload writes: the sensor firehose shape.
pub const PLANT: &str = "plant";

/// Most failure messages kept for the report.
const KEPT_FAILURES: usize = 20;

/// What one pass of a workload runs with.
#[derive(Debug)]
pub struct Env {
    /// The workload seed.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Where WAL directories are created (removed again by the pass).
    pub work_dir: PathBuf,
    /// Set in the traced pass.
    pub tracer: Option<Arc<Tracer>>,
    /// The timing wrapper's counts (traced pass).
    pub counts: Arc<WalCounts>,
    /// No new measured work starts after this instant, whatever the
    /// workload's own quota, so a slow disk cannot overrun the run.
    pub hard_deadline: Instant,
}

impl Env {
    /// A pass starting now.
    #[must_use]
    pub fn new(seed: u64, seconds: Duration, work_dir: PathBuf, traced: bool) -> Env {
        Env {
            seed,
            seconds,
            work_dir,
            tracer: traced.then(Tracer::new),
            counts: WalCounts::new(),
            hard_deadline: Instant::now() + seconds.max(Duration::from_secs(10)).mul_f64(1.5),
        }
    }

    /// Whether this is the traced pass.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// `inner`, behind the timing wrapper in the traced pass.
    #[must_use]
    pub fn storage(&self, inner: Arc<dyn Storage>) -> Arc<dyn Storage> {
        match &self.tracer {
            Some(t) => Arc::new(TimingStorage::new(
                inner,
                Arc::clone(t),
                Arc::clone(&self.counts),
            )),
            None => inner,
        }
    }

    /// Opens a durable database on `storage` with the default config
    /// (fsync `always`) on the system clock.
    ///
    /// # Errors
    ///
    /// The recovery failure.
    pub fn open(
        &self,
        storage: Arc<dyn Storage>,
    ) -> Result<(DurableDatabase, tempora::wal::RecoveryReport), WalError> {
        DurableDatabase::open(
            storage,
            Arc::new(tempora::time::SystemClock::new()),
            DurabilityConfig::default(),
        )
    }

    /// A span, in the traced pass.
    #[must_use]
    pub fn span(&self, name: &'static str, request: u64) -> Option<SpanGuard<'_>> {
        self.tracer.as_deref().map(|t| t.span(name, request))
    }

    /// A cross-check window, in the traced pass.
    #[must_use]
    pub fn window(&self) -> Option<Window> {
        self.traced().then(|| Window::open(&self.counts))
    }
}

/// Seconds since `t`.
#[must_use]
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Registry counters that the ingest pipeline exports, read at one
/// instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ingest {
    /// Σ µs of `tempora_ingest_stage_seconds{stage=check}`.
    pub check_us: u64,
    /// Σ µs of `tempora_ingest_stage_seconds{stage=apply}`.
    pub apply_us: u64,
    /// `tempora_ingest_records_total{outcome=accepted}`.
    pub records: u64,
    /// `tempora_check_compiled_hits_total`.
    pub compiled: u64,
    /// `tempora_check_interpreted_fallbacks_total`.
    pub interpreted: u64,
}

impl Ingest {
    /// Reads the ingest counters from a registry snapshot.
    #[must_use]
    pub fn read(snap: &MetricsSnapshot) -> Ingest {
        let stage = |s| {
            snap.histogram_labelled("tempora_ingest_stage_seconds", s)
                .map_or(0, |h| h.sum_us)
        };
        Ingest {
            check_us: stage("check"),
            apply_us: stage("apply"),
            records: snap
                .counter_labelled("tempora_ingest_records_total", "accepted")
                .unwrap_or(0),
            compiled: snap.counter_total("tempora_check_compiled_hits_total"),
            interpreted: snap.counter_total("tempora_check_interpreted_fallbacks_total"),
        }
    }

    /// Reads the registry now.
    #[must_use]
    pub fn now() -> Ingest {
        Ingest::read(&tempora::obs::snapshot())
    }

    /// The counts accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Ingest) -> Ingest {
        Ingest {
            check_us: self.check_us - earlier.check_us,
            apply_us: self.apply_us - earlier.apply_us,
            records: self.records - earlier.records,
            compiled: self.compiled - earlier.compiled,
            interpreted: self.interpreted - earlier.interpreted,
        }
    }
}

/// A metric under its workload name (`read_p50_us`, `writes_per_s`, ...),
/// printed in the human report.
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarises.
    pub samples: usize,
}

/// Per-layer inputs a traced pass gathers beyond its spans.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Wrapper counts over the cross-checked windows.
    pub wal: WalTally,
    /// Records acknowledged inside those windows.
    pub wal_records: u64,
    /// Registry ingest deltas over the load phases.
    pub ingest: Ingest,
    /// `latest_snapshot` calls that returned the previous `Arc`.
    pub memo_hits: u64,
    /// `latest_snapshot` calls.
    pub memo_calls: u64,
    /// Σ `ExecStats::examined`.
    pub examined: u64,
    /// Σ elements returned after filtering.
    pub returned: u64,
    /// Bytes `render_elements` produced, per read.
    pub response_bytes: Vec<f64>,
    /// Wrapper `Storage::read` time during each recovery, seconds.
    pub log_read_s: Vec<f64>,
    /// Frames each recovery replayed.
    pub frames_replayed: Vec<f64>,
    /// `DurableDatabase::checkpoint` durations, seconds.
    pub checkpoint_s: Vec<f64>,
    /// Bytes each checkpoint wrote through `write_atomic`.
    pub checkpoint_bytes: Vec<f64>,
}

/// Everything one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of each primary operation of the closed phases, µs, in
    /// completion order.
    pub op_latency_us: Vec<f64>,
    /// Primary operations completed (reads or writes).
    pub ops: f64,
    /// Wall time of the measured phases, seconds.
    pub op_seconds: f64,
    /// Completions of the current phase: (seconds since it began,
    /// latency in µs).
    pub op_done: Vec<(f64, f64)>,
    /// The windows of every closed phase.
    pub op_windows: Vec<WindowStat>,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Duration of each timed `DurableDatabase::open` over a full log.
    pub recovery_s: Vec<f64>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Extra metrics under their workload names, for the human report.
    pub named: Vec<Named>,
    /// Per-layer inputs (traced pass).
    pub layers: LayerInputs,
}

impl Pass {
    /// Counts one check; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one more failure of something already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// Folds a worker thread's operations, checks and per-layer counts
    /// into this pass.
    pub fn absorb(&mut self, mut other: Pass) {
        self.op_done.extend_from_slice(&other.op_done);
        self.ops += other.ops;
        let layers = std::mem::take(&mut other.layers);
        self.layers.memo_hits += layers.memo_hits;
        self.layers.memo_calls += layers.memo_calls;
        self.layers.examined += layers.examined;
        self.layers.returned += layers.returned;
        self.layers.response_bytes.extend(layers.response_bytes);
        self.absorb_checks(other);
    }

    /// Folds only a worker thread's checks and failures into this pass.
    pub fn absorb_checks(&mut self, other: Pass) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Counts one completed primary operation that took `latency_us`,
    /// completing `at` seconds into its phase.
    pub fn complete(&mut self, latency_us: f64, at: f64) {
        self.ops += 1.0;
        self.op_done.push((at, latency_us));
    }

    /// Ends a measured phase of `seconds`: its completions, in completion
    /// order, join the latency series and form windows of `per_window`
    /// operations each.
    pub fn close_phase(&mut self, seconds: f64, per_window: usize) {
        self.op_seconds += seconds;
        let mut done = std::mem::take(&mut self.op_done);
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.op_latency_us.extend(done.iter().map(|&(_, l)| l));
        self.op_windows.extend(stats::windows(&done, per_window));
    }

    /// Primary operations per second: the median rate over windows of the
    /// measured phases, which a burst of host noise in one window does not
    /// move; the plain mean rate when no window closed.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.op_windows.iter().map(|w| w.rate).collect();
        match stats::median(&rates) {
            Some(rate) => rate,
            None if self.op_seconds > 0.0 => self.ops / self.op_seconds,
            None => 0.0,
        }
    }

    /// Median latency of the primary operation, µs: the median over the
    /// windows of each window's median, for the same reason as
    /// [`Pass::ops_per_s`]; the median of all latencies when no window
    /// closed.
    #[must_use]
    pub fn op_p50_us(&self) -> f64 {
        let p50s: Vec<f64> = self.op_windows.iter().map(|w| w.p50).collect();
        stats::median(&p50s)
            .or_else(|| stats::median(&self.op_latency_us))
            .unwrap_or(0.0)
    }

    /// Adds a named metric for the human report.
    pub fn name(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.named.push(Named {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds `<prefix>_p50_us` and the tail of `samples_us` (named by the
    /// quantile it was taken at) for the human report.
    pub fn name_timing(&mut self, prefix: &str, in_order_us: &[f64]) {
        if let Some(s) = stats::summarize(in_order_us, report::TAIL_Q) {
            self.name(format!("{prefix}_p50_us"), s.p50, "us", s.n);
            let q = report::percent(s.tail.q);
            self.name(format!("{prefix}_p{q}_us"), s.tail.value, "us", s.n);
        }
    }

    /// Closes a cross-check window: adds the wrapper's counts and the
    /// acknowledged records to the layer inputs, or fails the pass when
    /// the wrapper and the registry disagree.
    pub fn close_window(&mut self, window: Option<Window>, env: &Env, records: u64) {
        let Some(window) = window else { return };
        match window.close(&env.counts) {
            Ok(tally) => {
                self.attempted += 1;
                self.layers.wal.add(&tally);
                self.layers.wal_records += records;
            }
            Err(diff) => {
                self.attempted += 1;
                self.fail(format!(
                    "timing wrapper disagrees with the registry: {diff}"
                ));
            }
        }
    }
}

/// One timed recovery: opens the log in `storage`, records its duration,
/// the frames it replayed and the time the wrapper spent reading, and
/// checks that the recovered dump equals `before`, the dump taken before
/// the database was dropped.
pub fn recover(
    env: &Env,
    pass: &mut Pass,
    storage: Arc<dyn Storage>,
    before: &str,
) -> Option<DurableDatabase> {
    let read_before = env.counts.tally().read_ns;
    let t = Instant::now();
    let opened = env.open(env.storage(storage));
    let took = secs_since(t);
    let (db, report) = match opened {
        Ok(o) => o,
        Err(e) => {
            pass.check(false, || format!("reopen: {e}"));
            return None;
        }
    };
    pass.recovery_s.push(took);
    pass.layers
        .frames_replayed
        .push(report.frames_replayed as f64);
    pass.layers
        .log_read_s
        .push((env.counts.tally().read_ns - read_before) as f64 / 1e9);
    pass.check(dump(db.db()) == before, || {
        "recovered dump differs from the dump before close".to_string()
    });
    Some(db)
}

/// Times a checkpoint and the bytes it writes.
pub fn checkpoint(env: &Env, pass: &mut Pass, db: &DurableDatabase) {
    let bytes_before = env.counts.tally().atomic_write_bytes;
    let t = Instant::now();
    let result = db.checkpoint();
    let took = secs_since(t);
    pass.check(result.is_ok(), || format!("checkpoint: {result:?}"));
    pass.layers.checkpoint_s.push(took);
    pass.layers
        .checkpoint_bytes
        .push((env.counts.tally().atomic_write_bytes - bytes_before) as f64);
}

/// Every acknowledged write must be in the recovered relation: `live`
/// elements current, `deleted` ones (deleted or superseded) deleted.
pub fn check_acked(
    pass: &mut Pass,
    db: &DurableDatabase,
    live: &[ElementId],
    deleted: &[ElementId],
) {
    let snap = db.db().snapshot();
    let (mut current, mut gone) = (HashSet::new(), HashSet::new());
    if let Some(rel) = snap.relation(PLANT) {
        for e in rel.iter_pinned() {
            if e.tt_end.is_none() {
                current.insert(e.id);
            } else {
                gone.insert(e.id);
            }
        }
    }
    let missing = live.iter().filter(|id| !current.contains(id)).count();
    pass.check(missing == 0, || {
        format!(
            "{missing} of {} acknowledged current elements not recovered",
            live.len()
        )
    });
    let undeleted = deleted.iter().filter(|id| !gone.contains(id)).count();
    pass.check(undeleted == 0, || {
        format!(
            "{undeleted} of {} acknowledged deletions not recovered",
            deleted.len()
        )
    });
}

/// Removes a directory tree if it exists.
pub fn remove_dir(dir: &std::path::Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}
