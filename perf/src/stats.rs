//! Order statistics and ratios, as the benchmark reports them.
//!
//! A timing is reported as its median and a tail percentile. The tail is
//! only as trustworthy as the samples beyond it, so [`tail`] never reports
//! a percentile with fewer than [`MIN_BEYOND`] samples past it: when a run
//! is too short for the asked percentile, it lowers the percentile to the
//! highest one the sample supports and says which one it used.

/// Samples that must lie strictly above a reported tail value.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank quantile of an ascending slice: the smallest value
/// with at least `q · n` samples at or below it. `None` when empty.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q)])
}

fn rank(n: usize, q: f64) -> usize {
    let q = q.clamp(0.0, 1.0);
    // Nearest rank: ceil(q·n) − 1, computed in integers where possible so
    // q = 0.99, n = 1000 lands on index 989 exactly.
    let r = (q * n as f64).ceil() as usize;
    r.saturating_sub(1).min(n - 1)
}

/// A tail percentile together with the quantile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported (≤ the one asked for).
    pub q: f64,
    /// The sample value at that quantile.
    pub value: f64,
    /// Samples strictly beyond the reported rank (always ≥ [`MIN_BEYOND`]).
    pub beyond: usize,
}

/// The `q` quantile of an ascending slice, lowered until at least
/// [`MIN_BEYOND`] samples lie beyond it. `None` when the slice has too few
/// samples to leave ten beyond any rank.
#[must_use]
pub fn tail(sorted: &[f64], q: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let r = rank(n, q).min(n - 1 - MIN_BEYOND);
    Some(Tail {
        q: (r + 1) as f64 / n as f64,
        value: sorted[r],
        beyond: n - 1 - r,
    })
}

/// Operations per window of [`windowed_tail`]: enough for a p99 with ten
/// samples beyond it.
pub const TAIL_WINDOW: usize = 1_000;

/// The tail of a series in arrival order, robust to short bursts: the
/// median, over consecutive windows of [`TAIL_WINDOW`] samples, of each
/// window's [`tail`]. A series shorter than two windows gets the [`tail`]
/// of all its samples. Returns the tail and the number of windows used.
#[must_use]
pub fn windowed_tail(in_order: &[f64], q: f64) -> Option<(Tail, usize)> {
    let sorted = |s: &[f64]| {
        let mut v = s.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    if in_order.len() < 2 * TAIL_WINDOW {
        return tail(&sorted(in_order), q).map(|t| (t, 1));
    }
    let mut tails: Vec<Tail> = in_order
        .chunks_exact(TAIL_WINDOW)
        .filter_map(|w| tail(&sorted(w), q))
        .collect();
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    let windows = tails.len();
    Some((tails[rank(windows, 0.5)], windows))
}

/// Median and tail of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail percentile (see [`windowed_tail`]).
    pub tail: Tail,
    /// Windows the tail is the median of (1: the whole series).
    pub windows: usize,
}

/// Summarises a series given in arrival order: its median, and its tail
/// asked at `q` (see [`windowed_tail`]). `None` when there are too few
/// samples for a tail.
#[must_use]
pub fn summarize(in_order: &[f64], q: f64) -> Option<Summary> {
    let (tail, windows) = windowed_tail(in_order, q)?;
    let mut sorted = in_order.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        p50: quantile(&sorted, 0.5)?,
        tail,
        windows,
    })
}

/// The median of unsorted values (nearest rank), or `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The rate and median latency of one window of completions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Operations over the window's duration, per second.
    pub rate: f64,
    /// Median latency of the window's operations.
    pub p50: f64,
}

/// Rates and median latencies over consecutive windows of a measured
/// phase.
///
/// `done` holds `(seconds since the phase began, latency)` for each
/// completed operation, sorted by completion time. Windows are
/// consecutive completions, at least `per_window` of them; a window's
/// rate is its operations over the time since the previous window closed
/// (the phase start for the first). A last window short of `per_window`
/// is dropped.
#[must_use]
pub fn windows(done: &[(f64, f64)], per_window: usize) -> Vec<WindowStat> {
    let mut out = Vec::new();
    let mut opened = 0.0;
    let mut latencies = Vec::with_capacity(per_window);
    for &(at, latency) in done {
        latencies.push(latency);
        if latencies.len() >= per_window && at > opened {
            out.push(WindowStat {
                rate: latencies.len() as f64 / (at - opened),
                p50: median(&latencies).unwrap_or(0.0),
            });
            opened = at;
            latencies.clear();
        }
    }
    out
}

/// A ratio that keeps its base: both counts are reported with it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ratio {
    /// The numerator.
    pub num: f64,
    /// The denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// A ratio of `num` over `den`.
    #[must_use]
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// `num / den`, or 0 when the base is empty (nothing was measured).
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6} ({} / {})", self.value(), self.num, self.den)
    }
}
