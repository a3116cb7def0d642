//! A centered interval tree over valid-time intervals.
//!
//! The classic Edelsbrunner structure adapted to the discrete microsecond
//! time line: each node owns a fixed *center* chosen by binary subdivision
//! of the representable range, and stores the intervals that contain its
//! center in two ordered sets (by begin ascending, by end descending).
//! Because centers are fixed by the numeric subdivision rather than by the
//! stored data, inserts and removals need no rebalancing, and the depth is
//! bounded by the bit width of the timestamp domain (~62).
//!
//! Complexities: insert/remove `O(log R + log n)` (R the domain width),
//! stabbing query `O(log R + k)`, overlap query `O(log R + k)` with `k`
//! the output size.

use std::collections::BTreeSet;

use tempora_time::{Interval, Timestamp};

use tempora_core::ElementId;

#[derive(Debug, Clone)]
struct Node<K> {
    center: i64,
    lo: i64,
    hi: i64,
    /// Intervals containing `center`, ordered by (begin, id).
    by_begin: BTreeSet<(i64, K)>,
    /// The same intervals, ordered by (end, id) — scanned from the top.
    by_end: BTreeSet<(i64, K)>,
    left: Option<Box<Node<K>>>,
    right: Option<Box<Node<K>>>,
}

impl<K: Copy + Ord> Node<K> {
    fn new(lo: i64, hi: i64) -> Self {
        Node {
            center: midpoint(lo, hi),
            lo,
            hi,
            by_begin: BTreeSet::new(),
            by_end: BTreeSet::new(),
            left: None,
            right: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.by_begin.is_empty() && self.left.is_none() && self.right.is_none()
    }
}

fn midpoint(lo: i64, hi: i64) -> i64 {
    lo + (hi - lo) / 2
}

/// A dynamic interval index supporting stabbing and overlap queries.
///
/// Entries are keyed by `K`: element surrogates for the live executor's
/// maintained index, element positions for the immutable index segments
/// built beside sealed storage chunks.
#[derive(Debug, Clone)]
pub struct IntervalIndex<K = ElementId> {
    root: Option<Box<Node<K>>>,
    len: usize,
}

impl<K: Copy + Ord> Default for IntervalIndex<K> {
    fn default() -> Self {
        IntervalIndex::new()
    }
}

impl<K: Copy + Ord> IntervalIndex<K> {
    /// An empty index covering the full timestamp domain.
    #[must_use]
    pub fn new() -> Self {
        IntervalIndex { root: None, len: 0 }
    }

    /// Number of indexed intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indexes an interval (duplicate `(interval, id)` pairs are ignored).
    pub fn insert(&mut self, interval: Interval, id: K) {
        let (b, e) = (interval.begin().micros(), interval.end().micros());
        let root = self.root.get_or_insert_with(|| {
            Box::new(Node::new(Timestamp::MIN.micros(), Timestamp::MAX.micros()))
        });
        if insert_rec(root, b, e, id) {
            self.len += 1;
        }
    }

    /// Removes an interval; returns whether it was present.
    pub fn remove(&mut self, interval: Interval, id: K) -> bool {
        let (b, e) = (interval.begin().micros(), interval.end().micros());
        let Some(root) = self.root.as_mut() else {
            return false;
        };
        let removed = remove_rec(root, b, e, id);
        if removed {
            self.len -= 1;
            if root.is_empty() {
                self.root = None;
            }
        }
        removed
    }

    /// Elements whose interval covers the instant `t` (half-open
    /// semantics: `begin ≤ t < end`).
    #[must_use]
    pub fn stab(&self, t: Timestamp) -> Vec<K> {
        let mut out = Vec::new();
        let mut node = self.root.as_deref();
        let q = t.micros();
        while let Some(n) = node {
            if q < n.center {
                // Stored intervals contain center > q, so they cover q iff
                // begin ≤ q.
                for &(b, id) in &n.by_begin {
                    if b > q {
                        break;
                    }
                    out.push(id);
                }
                node = n.left.as_deref();
            } else {
                // q ≥ center: stored intervals begin ≤ center ≤ q; they
                // cover q iff end > q (half-open).
                for &(e, id) in n.by_end.iter().rev() {
                    if e <= q {
                        break;
                    }
                    out.push(id);
                }
                node = n.right.as_deref();
            }
        }
        out
    }

    /// Elements whose interval overlaps `query` (shares at least one
    /// instant).
    #[must_use]
    pub fn overlapping(&self, query: Interval) -> Vec<K> {
        let mut out = Vec::new();
        let (qb, qe) = (query.begin().micros(), query.end().micros());
        let mut stack: Vec<&Node<K>> = self.root.as_deref().into_iter().collect();
        while let Some(n) = stack.pop() {
            if qe <= n.lo || qb > n.hi {
                continue;
            }
            if qe <= n.center {
                // Query lies left of (or up to) the center: stored
                // intervals (all containing center) overlap iff begin < qe.
                for &(b, id) in &n.by_begin {
                    if b >= qe {
                        break;
                    }
                    out.push(id);
                }
            } else if qb > n.center {
                // Query right of center: overlap iff end > qb.
                for &(e, id) in n.by_end.iter().rev() {
                    if e <= qb {
                        break;
                    }
                    out.push(id);
                }
            } else {
                // Query spans the center: every stored interval overlaps.
                out.extend(n.by_begin.iter().map(|&(_, id)| id));
            }
            if qb < n.center {
                if let Some(l) = n.left.as_deref() {
                    stack.push(l);
                }
            }
            if qe > n.center {
                if let Some(r) = n.right.as_deref() {
                    stack.push(r);
                }
            }
        }
        out
    }
}

fn insert_rec<K: Copy + Ord>(node: &mut Node<K>, b: i64, e: i64, id: K) -> bool {
    // Half-open interval [b, e) contains center c iff b ≤ c < e.
    if e <= node.center {
        let (lo, hi) = (node.lo, node.center - 1);
        let child = node
            .left
            .get_or_insert_with(|| Box::new(Node::new(lo, hi)));
        insert_rec(child, b, e, id)
    } else if b > node.center {
        let (lo, hi) = (node.center + 1, node.hi);
        let child = node
            .right
            .get_or_insert_with(|| Box::new(Node::new(lo, hi)));
        insert_rec(child, b, e, id)
    } else {
        let fresh = node.by_begin.insert((b, id));
        if fresh {
            node.by_end.insert((e, id));
        }
        fresh
    }
}

fn remove_rec<K: Copy + Ord>(node: &mut Node<K>, b: i64, e: i64, id: K) -> bool {
    if e <= node.center {
        let Some(child) = node.left.as_mut() else {
            return false;
        };
        let removed = remove_rec(child, b, e, id);
        if removed && child.is_empty() {
            node.left = None;
        }
        removed
    } else if b > node.center {
        let Some(child) = node.right.as_mut() else {
            return false;
        };
        let removed = remove_rec(child, b, e, id);
        if removed && child.is_empty() {
            node.right = None;
        }
        removed
    } else {
        let removed = node.by_begin.remove(&(b, id));
        if removed {
            node.by_end.remove(&(e, id));
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(b: i64, e: i64) -> Interval {
        Interval::new(Timestamp::from_secs(b), Timestamp::from_secs(e)).unwrap()
    }

    fn id(i: u64) -> ElementId {
        ElementId::new(i)
    }

    fn sorted(mut v: Vec<ElementId>) -> Vec<ElementId> {
        v.sort();
        v
    }

    #[test]
    fn stab_basic() {
        let mut idx = IntervalIndex::new();
        idx.insert(iv(0, 10), id(1));
        idx.insert(iv(5, 15), id(2));
        idx.insert(iv(20, 30), id(3));
        assert_eq!(sorted(idx.stab(Timestamp::from_secs(7))), vec![id(1), id(2)]);
        assert_eq!(sorted(idx.stab(Timestamp::from_secs(0))), vec![id(1)]);
        // Half-open: end excluded.
        assert_eq!(sorted(idx.stab(Timestamp::from_secs(10))), vec![id(2)]);
        assert!(idx.stab(Timestamp::from_secs(17)).is_empty());
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn overlap_basic() {
        let mut idx = IntervalIndex::new();
        idx.insert(iv(0, 10), id(1));
        idx.insert(iv(5, 15), id(2));
        idx.insert(iv(20, 30), id(3));
        assert_eq!(sorted(idx.overlapping(iv(8, 22))), vec![id(1), id(2), id(3)]);
        assert_eq!(sorted(idx.overlapping(iv(10, 20))), vec![id(2)]); // [10,15) only
        assert!(idx.overlapping(iv(15, 20)).is_empty());
        assert_eq!(sorted(idx.overlapping(iv(-100, 100))), vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn remove_and_duplicates() {
        let mut idx = IntervalIndex::new();
        idx.insert(iv(0, 10), id(1));
        idx.insert(iv(0, 10), id(1)); // duplicate ignored
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(iv(0, 10), id(1)));
        assert!(!idx.remove(iv(0, 10), id(1)));
        assert!(idx.is_empty());
        assert!(idx.stab(Timestamp::from_secs(5)).is_empty());
    }

    #[test]
    fn same_interval_different_ids() {
        let mut idx = IntervalIndex::new();
        idx.insert(iv(0, 10), id(1));
        idx.insert(iv(0, 10), id(2));
        assert_eq!(idx.len(), 2);
        assert_eq!(sorted(idx.stab(Timestamp::from_secs(3))), vec![id(1), id(2)]);
        idx.remove(iv(0, 10), id(1));
        assert_eq!(idx.stab(Timestamp::from_secs(3)), vec![id(2)]);
    }

    #[test]
    fn exhaustive_against_naive() {
        // Cross-check stab and overlap against a brute-force scan over a
        // grid of intervals.
        let mut idx = IntervalIndex::new();
        let mut all: Vec<(Interval, ElementId)> = Vec::new();
        let mut next = 0u64;
        for b in -10..10_i64 {
            for len in 1..6_i64 {
                let interval = iv(b * 3, b * 3 + len * 2);
                let eid = id(next);
                next += 1;
                idx.insert(interval, eid);
                all.push((interval, eid));
            }
        }
        assert_eq!(idx.len(), all.len());
        for probe in -40..40_i64 {
            let t = Timestamp::from_secs(probe);
            let expect: Vec<ElementId> = {
                let mut v: Vec<ElementId> = all
                    .iter()
                    .filter(|(i, _)| i.contains(t))
                    .map(|(_, e)| *e)
                    .collect();
                v.sort();
                v
            };
            assert_eq!(sorted(idx.stab(t)), expect, "stab at {probe}");
        }
        for qb in (-40..40_i64).step_by(7) {
            let q = iv(qb, qb + 11);
            let expect: Vec<ElementId> = {
                let mut v: Vec<ElementId> = all
                    .iter()
                    .filter(|(i, _)| i.overlaps(q))
                    .map(|(_, e)| *e)
                    .collect();
                v.sort();
                v
            };
            assert_eq!(sorted(idx.overlapping(q)), expect, "overlap at {qb}");
        }
        // Remove half and re-verify.
        for (i, (interval, eid)) in all.iter().enumerate() {
            if i % 2 == 0 {
                assert!(idx.remove(*interval, *eid));
            }
        }
        for probe in -40..40_i64 {
            let t = Timestamp::from_secs(probe);
            let expect: Vec<ElementId> = {
                let mut v: Vec<ElementId> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == 1)
                    .filter(|(_, (iv, _))| iv.contains(t))
                    .map(|(_, (_, e))| *e)
                    .collect();
                v.sort();
                v
            };
            assert_eq!(sorted(idx.stab(t)), expect, "post-removal stab at {probe}");
        }
    }

    #[test]
    fn extreme_coordinates() {
        let mut idx = IntervalIndex::new();
        let huge = Interval::new(Timestamp::MIN, Timestamp::MAX).unwrap();
        idx.insert(huge, id(1));
        assert_eq!(idx.stab(Timestamp::EPOCH), vec![id(1)]);
        assert_eq!(idx.stab(Timestamp::MIN), vec![id(1)]);
        assert!(idx.remove(huge, id(1)));
    }
}
