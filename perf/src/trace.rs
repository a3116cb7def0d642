//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions.
//!
//! A span holds a name, start, end, parent and request id. Spans are kept
//! in memory while the run is measured and written out as JSON lines when
//! it ends. Parents come from a per-thread stack, so a span opened inside
//! another on the same thread (a WAL `sync` inside a durable write) nests
//! under it without the layers in between knowing about tracing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the tracer, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The layer boundary, e.g. `wal.fsync`.
    pub name: &'static str,
    /// The request the span works for; children inherit their parent's.
    pub request: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans on this thread: (span id, request id).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a root-or-nested span for `request`.
    #[must_use]
    pub fn span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map(|&(p, _)| p);
            open.push((id, request));
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Opens a span under the innermost open span of this thread,
    /// inheriting its request id (request 0 when none is open).
    #[must_use]
    pub fn child(&self, name: &'static str) -> SpanGuard<'_> {
        let request = OPEN.with(|open| open.borrow().last().map_or(0, |&(_, r)| r));
        self.span(name, request)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// The file's creation or write failure.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&(id, _)| id == self.id) {
                open.truncate(pos);
            }
        });
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            request: self.request,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and a
/// child's time outside its parent is ignored).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Time each write spent waiting for a lock that serialises all writes.
///
/// Writes that take one shared lock around "apply, then log" run their
/// critical sections one after another, so a write can only have taken
/// the lock once the previous holder finished its last log call. For each
/// write span with log-call children this returns `(write id, wait_ns)`:
/// the time from the call to that hand-over, or 0 when the lock was free.
/// Writes with no log call are skipped.
#[must_use]
pub fn lock_waits_ns(writes: &[Span], log_calls: &[Span]) -> Vec<(u64, u64)> {
    let mut bounds: HashMap<u64, (u64, u64)> = HashMap::new();
    for c in log_calls {
        let Some(p) = c.parent else { continue };
        let e = bounds.entry(p).or_insert((c.start_ns, c.end_ns));
        e.0 = e.0.min(c.start_ns);
        e.1 = e.1.max(c.end_ns);
    }
    let mut order: Vec<(&Span, u64, u64)> = writes
        .iter()
        .filter_map(|w| bounds.get(&w.id).map(|&(first, last)| (w, first, last)))
        .collect();
    order.sort_by_key(|&(_, first, _)| first);
    let mut released = 0_u64;
    order
        .into_iter()
        .map(|(w, first, last)| {
            let locked = w.start_ns.max(released).min(first);
            released = last;
            (w.id, locked - w.start_ns)
        })
        .collect()
}
