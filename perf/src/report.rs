//! The metric catalogue and the output format.
//!
//! Every workload reports every metric of the catalogue it runs under:
//! [`END_TO_END`] without tracing (and [`REPORTED`] in the human report),
//! [`PER_LAYER`] with it. A per-layer
//! metric whose layer the workload does not exercise reads 0 with 0
//! samples. The names, units and directions here are the ones
//! `BENCHMARK.json` declares; a test keeps the two in step.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::stats::{self, Ratio};
use crate::trace::{self, Span};
use crate::Pass;

/// Quantile the tail metrics ask for.
pub const TAIL_Q: f64 = 0.99;

/// A catalogue entry: name, unit, and whether higher is better.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, measured with tracing off. These are the gated
/// ones; [`end_to_end`] also returns `op_tail_us` and `recovery_s` for the
/// report, whose run-to-run spread on a shared virtual machine is wider
/// than any bound a gate could hold.
pub const END_TO_END: &[Def] = &[
    lower("op_p50_us", "us"),
    higher("ops_per_s", "1/s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Reported beside [`END_TO_END`] in the human report and the result
/// file, not in the result line.
pub const REPORTED: &[Def] = &[lower("op_tail_us", "us"), lower("recovery_s", "s")];

/// Per-layer metrics, from the traced pass.
pub const PER_LAYER: &[Def] = &[
    lower("serve.round_trip_us", "us"),
    lower("serve.dispatch_us", "us"),
    lower("serve.frame_io_us", "us"),
    lower("serve.render_us", "us"),
    lower("serve.response_bytes", "bytes"),
    lower("design.snapshot_capture_us", "us"),
    higher("design.snapshot_memo_hit_ratio", "ratio"),
    higher("design.snapshot_memo_hits", "count"),
    lower("design.snapshot_memo_calls", "count"),
    lower("design.write_apply_us", "us"),
    lower("query.parse_us", "us"),
    lower("query.plan_us", "us"),
    lower("query.execute_us", "us"),
    lower("query.examined_per_returned", "ratio"),
    lower("query.examined", "count"),
    higher("query.returned", "count"),
    lower("core.check_us_per_record", "us"),
    lower("storage.apply_us_per_record", "us"),
    higher("core.compiled_check_ratio", "ratio"),
    higher("core.compiled_checks", "count"),
    lower("core.interpreted_checks", "count"),
    lower("core.ingest_records", "count"),
    lower("wal.append_us", "us"),
    lower("wal.fsync_us", "us"),
    lower("wal.fsyncs_per_record", "ratio"),
    lower("wal.fsyncs", "count"),
    lower("wal.records", "count"),
    lower("wal.bytes_per_record", "bytes"),
    lower("wal.commit_wait_us", "us"),
    lower("wal.recovery_s", "s"),
    lower("wal.log_read_s", "s"),
    lower("wal.replay_us_per_frame", "us"),
    lower("wal.frames_replayed", "count"),
    lower("wal.checkpoint_s", "s"),
    lower("wal.checkpoint_bytes", "bytes"),
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.untraced_ops_per_s", "1/s"),
    higher("trace.traced_ops_per_s", "1/s"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
    /// A note for the human report (quantile used, bases of a ratio).
    pub note: String,
}

impl Value {
    fn of(value: f64, samples: usize) -> Value {
        Value {
            value,
            samples,
            note: String::new(),
        }
    }

    fn ratio(r: Ratio) -> Value {
        Value {
            value: r.value(),
            samples: r.den as usize,
            note: format!("{} / {}", r.num, r.den),
        }
    }
}

fn median_of(values: &[f64]) -> Value {
    let mut v = Value::of(stats::median(values).unwrap_or(0.0), values.len());
    if values.len() > 1 {
        v.note = format!("median; {}", range(values.iter().copied()));
    }
    v
}

/// `values`' range, for a note.
fn range(values: impl Iterator<Item = f64>) -> String {
    let (lo, hi) = values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    });
    format!("range {lo:.6} .. {hi:.6}")
}

/// The end-to-end metrics of one untraced pass.
#[must_use]
pub fn end_to_end(pass: &Pass, peak_rss_mb: f64) -> HashMap<&'static str, Value> {
    let mut out = HashMap::new();
    let windows = &pass.op_windows;
    let n = pass.op_latency_us.len();
    out.insert(
        "op_p50_us",
        Value {
            value: pass.op_p50_us(),
            samples: n,
            note: format!(
                "median of {} window medians; {}",
                windows.len(),
                range(windows.iter().map(|w| w.p50))
            ),
        },
    );
    let tail = match stats::summarize(&pass.op_latency_us, TAIL_Q) {
        Some(s) => Value {
            value: s.tail.value,
            samples: s.n,
            note: format!(
                "p{}, {} samples beyond, median of {} window(s)",
                percent(s.tail.q),
                s.tail.beyond,
                s.windows
            ),
        },
        None => Value::of(0.0, n),
    };
    out.insert("op_tail_us", tail);
    out.insert(
        "ops_per_s",
        Value {
            value: pass.ops_per_s(),
            samples: pass.ops as usize,
            note: format!(
                "median of {} window rates; {}; {} ops in {:.3} s",
                windows.len(),
                range(windows.iter().map(|w| w.rate)),
                pass.ops,
                pass.op_seconds
            ),
        },
    );
    out.insert("recovery_s", median_of(&pass.recovery_s));
    out.insert("setup_s", median_of(&pass.setup_s));
    out.insert("peak_rss_mb", Value::of(peak_rss_mb, 1));
    out
}

/// A quantile as a percentage label: `0.99` → `99`, `0.898` → `89.8`.
#[must_use]
pub fn percent(q: f64) -> String {
    let p = format!("{:.2}", q * 100.0);
    p.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn durations_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(|s| s.duration_ns() as f64 / 1e3).collect()
}

/// The per-layer metrics of a traced pass, with the tracing overhead
/// against the untraced pass of the same seed.
#[must_use]
pub fn per_layer(
    traced: &Pass,
    spans: &[Span],
    untraced_ops_per_s: f64,
) -> HashMap<&'static str, Value> {
    let l = &traced.layers;
    let named = |name: &str| durations_us(spans.iter().filter(|s| s.name == name));
    let mut out = HashMap::new();

    // Serve: the TCP round trip and the same request dispatched in
    // process; the difference is queueing and socket time.
    let round_trip: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == "serve.round_trip")
        .map(|s| (s.request, s))
        .collect();
    let frame_io: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.dispatch")
        .filter_map(|d| {
            let rt = round_trip.get(&d.request)?;
            Some(rt.duration_ns().saturating_sub(d.duration_ns()) as f64 / 1e3)
        })
        .collect();
    out.insert("serve.round_trip_us", median_of(&named("serve.round_trip")));
    out.insert("serve.dispatch_us", median_of(&named("serve.dispatch")));
    out.insert("serve.frame_io_us", median_of(&frame_io));
    out.insert("serve.render_us", median_of(&named("serve.render")));
    out.insert("serve.response_bytes", median_of(&l.response_bytes));

    out.insert(
        "design.snapshot_capture_us",
        median_of(&named("design.snapshot_capture")),
    );
    let memo = Ratio::new(l.memo_hits as f64, l.memo_calls as f64);
    out.insert("design.snapshot_memo_hit_ratio", Value::ratio(memo));
    out.insert("design.snapshot_memo_hits", Value::of(memo.num, 1));
    out.insert("design.snapshot_memo_calls", Value::of(memo.den, 1));

    // Writes are serialised by the durable writer lock. A write's self
    // time (its span minus the WAL calls under it) is apply work plus
    // waiting for the other writer; the lock hand-overs separate the two.
    let self_ns = trace::self_times_ns(spans);
    let writes: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "design.write")
        .cloned()
        .collect();
    let log_calls: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "wal.append" || s.name == "wal.fsync")
        .cloned()
        .collect();
    let waits = trace::lock_waits_ns(&writes, &log_calls);
    let wait_us: f64 = waits.iter().map(|&(_, w)| w as f64 / 1e3).sum();
    let apply: Vec<f64> = waits
        .iter()
        .map(|&(id, w)| self_ns.get(&id).map_or(0, |s| s.saturating_sub(w)) as f64 / 1e3)
        .collect();
    out.insert("design.write_apply_us", median_of(&apply));
    // A mean, not a median: an unfair lock lets one writer barge in
    // repeatedly, so most writes wait nothing and a few wait long.
    out.insert(
        "wal.commit_wait_us",
        Value::ratio(Ratio::new(wait_us, waits.len() as f64)),
    );

    out.insert("query.parse_us", median_of(&named("query.parse")));
    out.insert("query.plan_us", median_of(&named("query.plan")));
    out.insert("query.execute_us", median_of(&named("query.execute")));
    let epr = Ratio::new(l.examined as f64, l.returned as f64);
    out.insert("query.examined_per_returned", Value::ratio(epr));
    out.insert("query.examined", Value::of(epr.num, 1));
    out.insert("query.returned", Value::of(epr.den, 1));

    let ing = &l.ingest;
    let per_record = |us: u64| Ratio::new(us as f64, ing.records as f64);
    out.insert(
        "core.check_us_per_record",
        Value::ratio(per_record(ing.check_us)),
    );
    out.insert(
        "storage.apply_us_per_record",
        Value::ratio(per_record(ing.apply_us)),
    );
    let compiled = Ratio::new(ing.compiled as f64, (ing.compiled + ing.interpreted) as f64);
    out.insert("core.compiled_check_ratio", Value::ratio(compiled));
    out.insert("core.compiled_checks", Value::of(ing.compiled as f64, 1));
    out.insert(
        "core.interpreted_checks",
        Value::of(ing.interpreted as f64, 1),
    );
    out.insert("core.ingest_records", Value::of(ing.records as f64, 1));

    let wal = &l.wal;
    let records = l.wal_records as f64;
    out.insert("wal.append_us", median_of(&named("wal.append")));
    out.insert("wal.fsync_us", median_of(&named("wal.fsync")));
    out.insert(
        "wal.fsyncs_per_record",
        Value::ratio(Ratio::new(wal.syncs as f64, records)),
    );
    out.insert("wal.fsyncs", Value::of(wal.syncs as f64, 1));
    out.insert("wal.records", Value::of(records, 1));
    out.insert(
        "wal.bytes_per_record",
        Value::ratio(Ratio::new(wal.append_bytes as f64, records)),
    );
    out.insert("wal.recovery_s", median_of(&traced.recovery_s));
    out.insert("wal.log_read_s", median_of(&l.log_read_s));
    let replay: Vec<f64> = traced
        .recovery_s
        .iter()
        .zip(&l.log_read_s)
        .zip(&l.frames_replayed)
        .filter(|(_, &frames)| frames > 0.0)
        .map(|((total, read), frames)| (total - read) * 1e6 / frames)
        .collect();
    out.insert("wal.replay_us_per_frame", median_of(&replay));
    out.insert("wal.frames_replayed", median_of(&l.frames_replayed));
    out.insert("wal.checkpoint_s", median_of(&l.checkpoint_s));
    out.insert("wal.checkpoint_bytes", median_of(&l.checkpoint_bytes));

    let traced_ops = traced.ops_per_s();
    out.insert(
        "trace.overhead_ratio",
        Value::ratio(Ratio::new(
            untraced_ops_per_s - traced_ops,
            untraced_ops_per_s,
        )),
    );
    out.insert("trace.untraced_ops_per_s", Value::of(untraced_ops_per_s, 1));
    out.insert("trace.traced_ops_per_s", Value::of(traced_ops, 1));
    out
}

/// The human-readable table: one line per metric with unit and samples.
#[must_use]
pub fn table(defs: &[Def], values: &HashMap<&'static str, Value>) -> String {
    let mut out = String::new();
    for d in defs {
        let v = values.get(d.name).cloned().unwrap_or(Value::of(0.0, 0));
        let _ = writeln!(
            out,
            "  {:<32} {:>16.4} {:<6} n={:<8} {}",
            d.name, v.value, d.unit, v.samples, v.note
        );
    }
    out
}

/// The result line: a JSON object with `correct`, `attempted`, `failed`
/// and one `{value, unit}` entry per catalogue metric.
#[must_use]
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &HashMap<&'static str, Value>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).map_or(0.0, |v| v.value);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
