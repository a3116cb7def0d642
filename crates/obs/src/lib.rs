//! # tempora-obs — zero-dependency instrumentation for the tempora workspace
//!
//! A process-wide metrics registry plus lightweight hierarchical spans,
//! built on `std` alone so it vendors exactly like the `shims/` crates:
//! no feature flags, no build scripts, no external dependencies.
//!
//! Three metric kinds live in one global registry, addressed by name and
//! an optional single `key=value` label:
//!
//! * [`Counter`] — monotonic `u64`, relaxed atomics on the hot path;
//! * [`Gauge`] — last-written `i64` (e.g. a configured shard count);
//! * [`Histogram`] — fixed-bucket latency histogram in microseconds,
//!   mutex-protected so a [`snapshot`] is internally consistent
//!   (`count == Σ buckets` always holds — see the atomicity tests).
//!
//! Spans ([`span`] / [`span_with`]) time a scope and push a
//! [`TraceEvent`] into a bounded ring buffer on drop; [`recent_traces`]
//! drains the most recent `n` for a `.trace`-style display. Recording is
//! globally gated by [`set_enabled`]: when disabled every operation is a
//! handful of nanoseconds (one relaxed load) and no clock is read.
//!
//! ```
//! use tempora_obs as obs;
//!
//! let batches = obs::counter("doc_batches_total");
//! batches.inc();
//!
//! let hist = obs::histogram_with("doc_stage_seconds", "stage", "check");
//! let sw = obs::Stopwatch::start();
//! // ... the work being timed ...
//! sw.record(&hist);
//!
//! {
//!     let _span = obs::span("doc-apply-batch");
//!     // nested spans record their depth for the trace display
//! }
//!
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter_total("doc_batches_total"), 1);
//! assert!(snap.to_prometheus().contains("doc_batches_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Default latency bucket upper bounds, in microseconds. Chosen to cover
/// everything from a sub-50µs admission check to a multi-second replay.
pub const DEFAULT_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000,
];

/// How many trace events the ring buffer retains.
pub const TRACE_CAPACITY: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable all recording. Metrics and spans are
/// enabled by default; disabling turns every recording operation into a
/// single relaxed atomic load (the "no-op recorder" the bench guard
/// compares against). Registered metrics keep their accumulated values.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Metric identity: name plus an optional single `key=value` label pair.
type Key = (&'static str, Option<(&'static str, String)>);

/// A monotonically increasing counter.
///
/// Increments are relaxed atomic adds gated on the global enable flag;
/// handles are `Arc`s that call sites may cache to skip the registry
/// lookup entirely.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (a no-op while recording is disabled).
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-written integer value (e.g. a configured shard count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge (a no-op while recording is disabled).
    pub fn set(&self, v: i64) {
        if is_enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct HistState {
    /// One slot per bound plus a final overflow slot.
    buckets: Vec<u64>,
    sum_us: u64,
    count: u64,
}

/// A fixed-bucket latency histogram over microsecond durations.
///
/// Recording takes a `Mutex`: recordings happen per batch, per shard, or
/// per query — never per record — so the lock is uncontended in practice,
/// and in exchange a [`snapshot`] observes `count == Σ buckets` exactly.
#[derive(Debug)]
pub struct Histogram {
    bounds_us: &'static [u64],
    state: Mutex<HistState>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            bounds_us: &DEFAULT_BOUNDS_US,
            state: Mutex::new(HistState {
                buckets: vec![0; DEFAULT_BOUNDS_US.len() + 1],
                sum_us: 0,
                count: 0,
            }),
        }
    }

    /// Record one observation of `us` microseconds (a no-op while
    /// recording is disabled).
    pub fn record_us(&self, us: u64) {
        if !is_enabled() {
            return;
        }
        let idx = self
            .bounds_us
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(self.bounds_us.len());
        let mut state = lock(&self.state);
        state.buckets[idx] += 1;
        state.sum_us = state.sum_us.saturating_add(us);
        state.count += 1;
    }

    /// Bucket upper bounds in microseconds.
    #[must_use]
    pub fn bounds_us(&self) -> &[u64] {
        self.bounds_us
    }

    fn sample(&self) -> (Vec<u64>, u64, u64) {
        let state = lock(&self.state);
        (state.buckets.clone(), state.sum_us, state.count)
    }

    fn reset(&self) {
        let mut state = lock(&self.state);
        state.buckets.iter_mut().for_each(|b| *b = 0);
        state.sum_us = 0;
        state.count = 0;
    }
}

/// Times a scope; reads the clock only while recording is enabled.
#[derive(Debug)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Start timing now (inert when recording is disabled).
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            start: is_enabled().then(Instant::now),
        }
    }

    /// Microseconds elapsed since [`Stopwatch::start`], if running.
    #[must_use]
    pub fn elapsed_us(&self) -> Option<u64> {
        self.start
            .map(|s| u64::try_from(s.elapsed().as_micros()).unwrap_or(u64::MAX))
    }

    /// Record the elapsed time into `hist` and return the microseconds,
    /// or `None` when the stopwatch was started disabled.
    pub fn record(&self, hist: &Histogram) -> Option<u64> {
        let us = self.elapsed_us()?;
        hist.record_us(us);
        Some(us)
    }
}

/// Locks one of this crate's mutexes, recovering a poisoned guard. Every
/// critical section here cannot leave its data half-updated (one map
/// lookup-or-insert, a few integer adds, a ring-buffer push), so a panic
/// elsewhere must not turn every later metric call into a second panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Registry {
    counters: Mutex<BTreeMap<Key, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Key, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// The unlabelled counter `name`, registering it on first use.
pub fn counter(name: &'static str) -> Arc<Counter> {
    counter_key(name, None)
}

/// The counter `name{label_key="label_value"}`, registering on first use.
pub fn counter_with(name: &'static str, label_key: &'static str, label_value: &str) -> Arc<Counter> {
    counter_key(name, Some((label_key, label_value.to_owned())))
}

fn counter_key(name: &'static str, label: Option<(&'static str, String)>) -> Arc<Counter> {
    let mut map = lock(&registry().counters);
    Arc::clone(map.entry((name, label)).or_default())
}

/// The unlabelled gauge `name`, registering it on first use.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    let mut map = lock(&registry().gauges);
    Arc::clone(map.entry((name, None)).or_default())
}

/// The unlabelled histogram `name`, registering it on first use.
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    histogram_key(name, None)
}

/// The histogram `name{label_key="label_value"}`, registering on first use.
pub fn histogram_with(
    name: &'static str,
    label_key: &'static str,
    label_value: &str,
) -> Arc<Histogram> {
    histogram_key(name, Some((label_key, label_value.to_owned())))
}

fn histogram_key(name: &'static str, label: Option<(&'static str, String)>) -> Arc<Histogram> {
    let mut map = lock(&registry().histograms);
    Arc::clone(map.entry((name, label)).or_insert_with(|| Arc::new(Histogram::new())))
}

/// Zero every registered metric and clear the trace ring buffer.
/// Registrations themselves survive, so cached handles stay valid.
pub fn reset() {
    let reg = registry();
    for c in lock(&reg.counters).values() {
        c.reset();
    }
    for g in lock(&reg.gauges).values() {
        g.reset();
    }
    for h in lock(&reg.histograms).values() {
        h.reset();
    }
    lock(traces()).clear();
}

// ---------------------------------------------------------------------------
// Spans and the trace ring buffer
// ---------------------------------------------------------------------------

/// One completed span, as retained by the trace ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (the static string passed to [`span`]).
    pub name: &'static str,
    /// Optional free-form detail (e.g. a relation name or shard count).
    pub detail: Option<String>,
    /// Nesting depth at the time the span was opened (0 = root).
    pub depth: u32,
    /// Microseconds from process start to span open.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = "  ".repeat(self.depth as usize);
        write!(f, "{indent}{}", self.name)?;
        if let Some(detail) = &self.detail {
            write!(f, " [{detail}]")?;
        }
        write!(f, "  {}µs  (t+{}µs)", self.duration_us, self.start_us)
    }
}

fn traces() -> &'static Mutex<VecDeque<TraceEvent>> {
    static TRACES: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    TRACES.get_or_init(|| Mutex::new(VecDeque::with_capacity(TRACE_CAPACITY)))
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static SPAN_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Live guard for an open span; completing (dropping) it pushes a
/// [`TraceEvent`] into the ring buffer. Spans nested within it record a
/// greater depth, giving the `.trace` display its indentation.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    detail: Option<String>,
    depth: u32,
    start: Option<Instant>,
    start_us: u64,
}

/// Open a span named `name` (inert when recording is disabled).
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    span_inner(name, None)
}

/// Open a span with a free-form detail string.
#[must_use]
pub fn span_with(name: &'static str, detail: impl Into<String>) -> SpanGuard {
    span_inner(name, Some(detail.into()))
}

fn span_inner(name: &'static str, detail: Option<String>) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            name,
            detail: None,
            depth: 0,
            start: None,
            start_us: 0,
        };
    }
    let depth = SPAN_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    let now = Instant::now();
    let start_us =
        u64::try_from(now.duration_since(process_epoch()).as_micros()).unwrap_or(u64::MAX);
    SpanGuard {
        name,
        detail,
        depth,
        start: Some(now),
        start_us,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let event = TraceEvent {
            name: self.name,
            detail: self.detail.take(),
            depth: self.depth,
            start_us: self.start_us,
            duration_us: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
        };
        let mut buf = lock(traces());
        if buf.len() == TRACE_CAPACITY {
            buf.pop_front();
        }
        buf.push_back(event);
    }
}

/// The most recent `n` completed spans, oldest first. Spans are recorded
/// on completion, so a child appears before its enclosing parent.
#[must_use]
pub fn recent_traces(n: usize) -> Vec<TraceEvent> {
    let buf = lock(traces());
    buf.iter().rev().take(n).rev().cloned().collect()
}

// ---------------------------------------------------------------------------
// Snapshots and the Prometheus text exporter
// ---------------------------------------------------------------------------

/// A counter or gauge sample inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample<T> {
    /// Metric name.
    pub name: &'static str,
    /// Optional `key=value` label pair.
    pub label: Option<(&'static str, String)>,
    /// Sampled value.
    pub value: T,
}

/// A histogram sample inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: &'static str,
    /// Optional `key=value` label pair.
    pub label: Option<(&'static str, String)>,
    /// Bucket upper bounds in microseconds.
    pub bounds_us: Vec<u64>,
    /// Per-bucket observation counts (one extra overflow slot).
    pub buckets: Vec<u64>,
    /// Sum of all observations in microseconds.
    pub sum_us: u64,
    /// Total observation count (equals the bucket sum).
    pub count: u64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<Sample<u64>>,
    /// All gauges.
    pub gauges: Vec<Sample<i64>>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

/// Snapshot the global registry.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = lock(&reg.counters)
        .iter()
        .map(|((name, label), c)| Sample {
            name,
            label: label.clone(),
            value: c.get(),
        })
        .collect();
    let gauges = lock(&reg.gauges)
        .iter()
        .map(|((name, label), g)| Sample {
            name,
            label: label.clone(),
            value: g.get(),
        })
        .collect();
    let histograms = lock(&reg.histograms)
        .iter()
        .map(|((name, label), h)| {
            let (buckets, sum_us, count) = h.sample();
            HistogramSample {
                name,
                label: label.clone(),
                bounds_us: h.bounds_us().to_vec(),
                buckets,
                sum_us,
                count,
            }
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

impl MetricsSnapshot {
    /// The value of counter `name` summed over all of its label values.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// The value of the counter `name` carrying the given label value
    /// (any label key), if registered.
    #[must_use]
    pub fn counter_labelled(&self, name: &str, label_value: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|s| s.name == name && s.label.as_ref().is_some_and(|(_, v)| v == label_value))
            .map(|s| s.value)
    }

    /// The histogram sample for `name` carrying the given label value
    /// (any label key), if registered.
    #[must_use]
    pub fn histogram_labelled(&self, name: &str, label_value: &str) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|s| s.name == name && s.label.as_ref().is_some_and(|(_, v)| v == label_value))
    }

    /// Total observation count of histogram `name` over all label values.
    #[must_use]
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    }

    /// Render the snapshot in the Prometheus text exposition format.
    /// Durations are converted to seconds; histogram buckets are emitted
    /// cumulatively with the conventional `le` label and `+Inf` terminal.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let type_line = |out: &mut String, name: &str, kind: &str| {
            let _ = writeln!(out, "# TYPE {name} {kind}");
        };
        let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for s in &self.counters {
            if seen.insert(s.name) {
                type_line(&mut out, s.name, "counter");
            }
            let _ = writeln!(out, "{}{} {}", s.name, fmt_label(&s.label), s.value);
        }
        for s in &self.gauges {
            if seen.insert(s.name) {
                type_line(&mut out, s.name, "gauge");
            }
            let _ = writeln!(out, "{}{} {}", s.name, fmt_label(&s.label), s.value);
        }
        for h in &self.histograms {
            if seen.insert(h.name) {
                type_line(&mut out, h.name, "histogram");
            }
            let mut cumulative = 0_u64;
            for (i, bucket) in h.buckets.iter().enumerate() {
                cumulative += bucket;
                let le = match h.bounds_us.get(i) {
                    Some(&b) => fmt_seconds(b),
                    None => "+Inf".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    fmt_label_extra(&h.label, "le", &le),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                h.name,
                fmt_label(&h.label),
                fmt_seconds(h.sum_us)
            );
            let _ = writeln!(out, "{}_count{} {}", h.name, fmt_label(&h.label), h.count);
        }
        out
    }
}

fn fmt_seconds(us: u64) -> String {
    let secs = us as f64 / 1e6;
    format!("{secs}")
}

fn fmt_label(label: &Option<(&'static str, String)>) -> String {
    match label {
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        None => String::new(),
    }
}

fn fmt_label_extra(label: &Option<(&'static str, String)>, k2: &str, v2: &str) -> String {
    match label {
        Some((k, v)) => format!("{{{k}=\"{v}\",{k2}=\"{v2}\"}}"),
        None => format!("{{{k2}=\"{v2}\"}}"),
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero_counters: Vec<_> = self.counters.iter().filter(|s| s.value != 0).collect();
        let nonzero_gauges: Vec<_> = self.gauges.iter().filter(|s| s.value != 0).collect();
        let live_hists: Vec<_> = self.histograms.iter().filter(|h| h.count != 0).collect();
        if nonzero_counters.is_empty() && nonzero_gauges.is_empty() && live_hists.is_empty() {
            return writeln!(f, "no metrics recorded yet");
        }
        if !nonzero_counters.is_empty() {
            writeln!(f, "counters:")?;
            for s in &nonzero_counters {
                writeln!(f, "  {}{} = {}", s.name, fmt_label(&s.label), s.value)?;
            }
        }
        if !nonzero_gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for s in &nonzero_gauges {
                writeln!(f, "  {}{} = {}", s.name, fmt_label(&s.label), s.value)?;
            }
        }
        if !live_hists.is_empty() {
            writeln!(f, "histograms (µs):")?;
            for h in &live_hists {
                let mean = h.sum_us / h.count.max(1);
                writeln!(
                    f,
                    "  {}{}  count={} sum={}µs mean={}µs p-buckets={}",
                    h.name,
                    fmt_label(&h.label),
                    h.count,
                    h.sum_us,
                    mean,
                    render_buckets(h),
                )?;
            }
        }
        Ok(())
    }
}

/// Compact non-empty-bucket rendering, e.g. `[≤1000µs:3 ≤2500µs:1]`.
fn render_buckets(h: &HistogramSample) -> String {
    let mut parts = Vec::new();
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        match h.bounds_us.get(i) {
            Some(&b) => parts.push(format!("≤{b}µs:{n}")),
            None => parts.push(format!(">{}µs:{n}", h.bounds_us.last().copied().unwrap_or(0))),
        }
    }
    format!("[{}]", parts.join(" "))
}

// ---------------------------------------------------------------------------
// Phase profiles (workload replay)
// ---------------------------------------------------------------------------

/// One row of a [`Profile`] table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Phase name (e.g. `build-batch`, `check`, `apply`).
    pub phase: String,
    /// Time attributed to the phase, in microseconds.
    pub micros: u64,
    /// Free-form note (e.g. record counts).
    pub note: String,
}

/// An ordered per-phase timing breakdown, rendered as an aligned table.
/// Produced by the workload replay hooks
/// (`tempora::load_event_workload_batched_profiled`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// The rows, in presentation order.
    pub rows: Vec<ProfileRow>,
    /// Wall-clock total the percentages are computed against, in
    /// microseconds. Phases may overlap or under-cover this total.
    pub total_us: u64,
}

impl Profile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Profile::default()
    }

    /// Append a row.
    pub fn push(&mut self, phase: impl Into<String>, micros: u64, note: impl Into<String>) {
        self.rows.push(ProfileRow {
            phase: phase.into(),
            micros,
            note: note.into(),
        });
    }

    /// Set the wall-clock total used for the percentage column.
    pub fn set_total(&mut self, micros: u64) {
        self.total_us = micros;
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .rows
            .iter()
            .map(|r| r.phase.len())
            .chain(std::iter::once("phase".len()))
            .max()
            .unwrap_or(5);
        writeln!(f, "{:<width$}  {:>10}  {:>6}  note", "phase", "µs", "%")?;
        for row in &self.rows {
            let pct = if self.total_us == 0 {
                0.0
            } else {
                row.micros as f64 * 100.0 / self.total_us as f64
            };
            writeln!(
                f,
                "{:<width$}  {:>10}  {:>5.1}%  {}",
                row.phase, row.micros, pct, row.note
            )?;
        }
        writeln!(f, "{:<width$}  {:>10}  {:>6}", "total", self.total_us, "100%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the registry and trace buffer are process-global and unit
    // tests run concurrently, so every test uses metric names unique to
    // it and none calls `reset()` or `set_enabled()` (those are covered
    // by the dedicated integration binaries, which own their process).

    #[test]
    fn counter_accumulates_and_labels_are_distinct() {
        let a = counter_with("t_requests_total", "kind", "a");
        let b = counter_with("t_requests_total", "kind", "b");
        a.inc();
        a.add(4);
        b.inc();
        let snap = snapshot();
        assert_eq!(snap.counter_labelled("t_requests_total", "a"), Some(5));
        assert_eq!(snap.counter_labelled("t_requests_total", "b"), Some(1));
        assert_eq!(snap.counter_total("t_requests_total"), 6);
    }

    #[test]
    fn a_panic_under_the_registry_lock_does_not_cascade() {
        let before = counter("t_poison_survivor_total");
        before.inc();
        let poisoner = std::thread::spawn(|| {
            let _held = lock(&registry().counters);
            panic!("panic while holding the counters lock");
        });
        assert!(poisoner.join().is_err());
        assert!(registry().counters.is_poisoned());
        // Registration, recording and snapshots keep working.
        let after = counter("t_poison_survivor_total");
        after.inc();
        counter_with("t_poison_labelled_total", "kind", "x").add(3);
        let snap = snapshot();
        assert_eq!(snap.counter_total("t_poison_survivor_total"), 2);
        assert_eq!(
            snap.counter_labelled("t_poison_labelled_total", "x"),
            Some(3)
        );
        assert!(snap.to_prometheus().contains("t_poison_survivor_total 2"));
    }

    #[test]
    fn gauge_takes_last_write() {
        let g = gauge("t_shards");
        g.set(4);
        g.set(8);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn histogram_buckets_place_values_on_boundaries_and_overflow() {
        let h = histogram("t_bucketing_seconds");
        // Exactly on a bound → that bucket (le is inclusive).
        h.record_us(50);
        // Just above → next bucket.
        h.record_us(51);
        // Far beyond the last bound → overflow slot.
        h.record_us(10_000_000);
        // Zero → first bucket.
        h.record_us(0);
        let (buckets, sum, count) = h.sample();
        assert_eq!(count, 4);
        assert_eq!(sum, 50 + 51 + 10_000_000);
        assert_eq!(buckets[0], 2, "0 and 50 land in ≤50µs");
        assert_eq!(buckets[1], 1, "51 lands in ≤100µs");
        assert_eq!(*buckets.last().unwrap(), 1, "10s lands in overflow");
        assert_eq!(buckets.iter().sum::<u64>(), count);
        assert_eq!(buckets.len(), DEFAULT_BOUNDS_US.len() + 1);
    }

    #[test]
    fn histogram_snapshot_is_atomic_under_concurrent_recording() {
        // Hammer one histogram from a worker pool while snapshotting:
        // every snapshot must satisfy count == Σ buckets (the mutex
        // guarantees recordings are indivisible).
        let h = histogram("t_atomicity_seconds");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..2_000_u64 {
                        h.record_us(t * 37 + i % 600_000);
                    }
                });
            }
            for _ in 0..200 {
                let (buckets, _, count) = h.sample();
                assert_eq!(buckets.iter().sum::<u64>(), count, "torn histogram snapshot");
            }
        });
        let (buckets, _, count) = h.sample();
        assert_eq!(count, 8_000);
        assert_eq!(buckets.iter().sum::<u64>(), count);
    }

    #[test]
    fn prometheus_export_parses_line_by_line() {
        counter_with("t_prom_total", "outcome", "ok").add(3);
        gauge("t_prom_gauge").set(-2);
        let h = histogram("t_prom_seconds");
        h.record_us(120);
        h.record_us(9_999_999_999); // overflow
        let text = snapshot().to_prometheus();
        let mut bucket_lines = 0;
        let mut saw_inf = false;
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE line has a name");
                let kind = parts.next().expect("TYPE line has a kind");
                assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
                assert!(!name.is_empty());
                continue;
            }
            // Sample line: `name[{labels}] value`.
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
            let name_part = series.split('{').next().unwrap();
            assert!(
                name_part
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            if let Some(labels) = series.strip_suffix('}').and_then(|s| s.split_once('{')) {
                for pair in labels.1.split(',') {
                    let (k, v) = pair.split_once('=').expect("label is k=v");
                    assert!(!k.is_empty());
                    assert!(v.starts_with('"') && v.ends_with('"'), "unquoted label {pair}");
                }
            }
            if series.contains("t_prom_seconds_bucket") {
                bucket_lines += 1;
                saw_inf |= series.contains("le=\"+Inf\"");
            }
        }
        assert_eq!(bucket_lines, DEFAULT_BOUNDS_US.len() + 1);
        assert!(saw_inf, "histogram must end with an +Inf bucket");
        assert!(text.contains("t_prom_total{outcome=\"ok\"} 3"));
        assert!(text.contains("t_prom_gauge -2"));
        assert!(text.contains("t_prom_seconds_count 2"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let h = histogram("t_cumulative_seconds");
        h.record_us(10); // first bucket
        h.record_us(60); // second bucket
        let text = snapshot().to_prometheus();
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("t_cumulative_seconds_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(counts.len(), DEFAULT_BOUNDS_US.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "non-monotone: {counts:?}");
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        assert_eq!(*counts.last().unwrap(), 2, "+Inf bucket equals count");
    }

    #[test]
    fn spans_record_nesting_depth() {
        {
            let _outer = span_with("t-outer", "detail");
            let _inner = span("t-inner");
        }
        let events = recent_traces(TRACE_CAPACITY);
        let inner = events.iter().rfind(|e| e.name == "t-inner").expect("inner");
        let outer = events.iter().rfind(|e| e.name == "t-outer").expect("outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.detail.as_deref(), Some("detail"));
        assert!(outer.duration_us >= inner.duration_us);
        assert!(format!("{inner}").starts_with("  t-inner"));
    }

    #[test]
    fn trace_buffer_is_bounded() {
        for _ in 0..TRACE_CAPACITY + 50 {
            let _s = span("t-flood");
        }
        assert!(recent_traces(usize::MAX).len() <= TRACE_CAPACITY);
        assert_eq!(recent_traces(3).len(), 3);
    }

    #[test]
    fn profile_renders_aligned_table() {
        let mut p = Profile::new();
        p.push("build-batch", 120, "8000 records");
        p.push("check", 900, "4 shards");
        p.set_total(1200);
        let text = p.to_string();
        assert!(text.contains("build-batch"));
        assert!(text.contains("75.0%"), "900/1200 = 75%: {text}");
        assert!(text.lines().last().unwrap().contains("total"));
    }

    #[test]
    fn stopwatch_records_into_histogram() {
        let h = histogram("t_stopwatch_seconds");
        let sw = Stopwatch::start();
        let us = sw.record(&h).expect("enabled by default");
        let (_, sum, count) = h.sample();
        assert_eq!(count, 1);
        assert!(sum >= us || us == 0);
    }
}
