//! Object timelines: an object's attribute value as a function of valid
//! time.
//!
//! §2 of the paper calls the set of elements sharing an object surrogate a
//! "life-line" (citing \[Sch77\]) or "time sequence" (\[SK86\]). A
//! [`Timeline`] materializes one attribute of one life-line over valid
//! time, as seen from a chosen transaction time (belief instant):
//! overlapping later-stored facts supersede earlier-stored ones, and
//! adjacent segments with equal values are *coalesced*.

use tempora_time::{Interval, Timestamp};

use tempora_core::{Element, ObjectId, Value, ValidTime};

/// One segment of a timeline: a value holding over a valid interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The valid interval the value holds over.
    pub valid: Interval,
    /// The attribute value.
    pub value: Value,
}

/// An attribute-over-valid-time view of one object's life-line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    segments: Vec<Segment>,
}

impl Timeline {
    /// Builds a timeline for `attr` of `object`, as believed at
    /// transaction time `as_of`, from the given elements (typically an
    /// `ObjectHistory` query result).
    ///
    /// Elements not stored as of `as_of`, not belonging to `object`, not
    /// interval-stamped, or lacking the attribute are skipped. Where valid
    /// intervals overlap, the element with the larger `tt_begin` (the most
    /// recently stored belief) wins — the "latest assertion supersedes"
    /// reading of §2's historical states.
    #[must_use]
    pub fn build(
        elements: &[Element],
        object: ObjectId,
        attr: &str,
        as_of: Timestamp,
    ) -> Timeline {
        // Collect candidate (interval, tt_b, value), most recent last.
        let mut candidates: Vec<(Interval, Timestamp, Value)> = elements
            .iter()
            .filter(|e| e.object == object && e.existed_at(as_of))
            .filter_map(|e| match e.valid {
                ValidTime::Interval(iv) => {
                    e.attr(attr).map(|v| (iv, e.tt_begin, v.clone()))
                }
                ValidTime::Event(_) => None,
            })
            .collect();
        candidates.sort_by_key(|(_, tt, _)| *tt);

        // Paint segments in storage order: later assertions overwrite.
        // Work over interval boundaries.
        let mut boundaries: Vec<Timestamp> = candidates
            .iter()
            .flat_map(|(iv, _, _)| [iv.begin(), iv.end()])
            .collect();
        boundaries.sort();
        boundaries.dedup();

        let mut segments: Vec<Segment> = Vec::new();
        for window in boundaries.windows(2) {
            let Ok(cell) = Interval::new(window[0], window[1]) else {
                continue;
            };
            // Last-stored candidate covering this cell wins.
            let winner = candidates
                .iter()
                .rev()
                .find(|(iv, _, _)| iv.encloses(cell));
            if let Some((_, _, value)) = winner {
                segments.push(Segment {
                    valid: cell,
                    value: value.clone(),
                });
            }
        }

        // Coalesce adjacent equal-valued segments.
        let mut coalesced: Vec<Segment> = Vec::new();
        for seg in segments {
            match coalesced.last_mut() {
                Some(last) if last.valid.meets(seg.valid) && last.value == seg.value => {
                    last.valid = last.valid.hull(seg.valid);
                }
                _ => coalesced.push(seg),
            }
        }
        Timeline {
            segments: coalesced,
        }
    }

    /// The coalesced segments, in valid-time order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The value holding at `vt`, if any.
    #[must_use]
    pub fn value_at(&self, vt: Timestamp) -> Option<&Value> {
        self.segments
            .iter()
            .find(|s| s.valid.contains(vt))
            .map(|s| &s.value)
    }

    /// Whether the timeline is gap-free between its extremes.
    #[must_use]
    pub fn is_contiguous(&self) -> bool {
        self.segments
            .windows(2)
            .all(|w| w[0].valid.meets(w[1].valid))
    }

    /// The covered valid span, if non-empty.
    #[must_use]
    pub fn span(&self) -> Option<Interval> {
        let first = self.segments.first()?;
        let last = self.segments.last()?;
        Some(first.valid.hull(last.valid))
    }

    /// The fraction of the hull span actually covered by segments (1.0 =
    /// gap-free), `None` when empty.
    #[must_use]
    pub fn coverage_ratio(&self) -> Option<f64> {
        let span = self.span()?;
        let covered: i64 = self
            .segments
            .iter()
            .map(|s| s.valid.duration().micros())
            .sum();
        #[allow(clippy::cast_precision_loss)]
        Some(covered as f64 / span.duration().micros() as f64)
    }

    /// The duration-weighted mean of a numeric attribute timeline — the
    /// classic temporal aggregate ("average salary over the year weights
    /// each salary by how long it held"). Non-numeric segments are
    /// skipped; `None` when no numeric segment exists.
    #[must_use]
    pub fn duration_weighted_mean(&self) -> Option<f64> {
        let mut weight = 0.0_f64;
        let mut acc = 0.0_f64;
        for s in &self.segments {
            if let Some(v) = s.value.as_float() {
                #[allow(clippy::cast_precision_loss)]
                let w = s.valid.duration().micros() as f64;
                acc += v * w;
                weight += w;
            }
        }
        (weight > 0.0).then(|| acc / weight)
    }

    /// Total time each distinct value held, longest first — "how long was
    /// the employee on each project?".
    #[must_use]
    pub fn value_durations(&self) -> Vec<(Value, tempora_time::TimeDelta)> {
        let mut totals: Vec<(Value, tempora_time::TimeDelta)> = Vec::new();
        for s in &self.segments {
            match totals.iter_mut().find(|(v, _)| *v == s.value) {
                Some((_, d)) => *d = d.saturating_add(s.valid.duration()),
                None => totals.push((s.value.clone(), s.valid.duration())),
            }
        }
        totals.sort_by_key(|(_, d)| std::cmp::Reverse(*d));
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::ElementId;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn iv(b: i64, e: i64) -> Interval {
        Interval::new(ts(b), ts(e)).unwrap()
    }

    fn el(id: u64, valid: Interval, tt: i64, project: &str) -> Element {
        Element::new(ElementId::new(id), ObjectId::new(1), valid, ts(tt))
            .with_attr("project", project)
    }

    #[test]
    fn contiguous_weeks_coalesce_equal_values() {
        let elements = vec![
            el(1, iv(0, 7), 1, "apollo"),
            el(2, iv(7, 14), 2, "apollo"),
            el(3, iv(14, 21), 3, "borealis"),
        ];
        let tl = Timeline::build(&elements, ObjectId::new(1), "project", ts(100));
        assert_eq!(tl.segments().len(), 2);
        assert_eq!(tl.segments()[0].valid, iv(0, 14));
        assert_eq!(tl.segments()[0].value, Value::str("apollo"));
        assert_eq!(tl.segments()[1].valid, iv(14, 21));
        assert!(tl.is_contiguous());
        assert_eq!(tl.span(), Some(iv(0, 21)));
        assert_eq!(tl.value_at(ts(10)), Some(&Value::str("apollo")));
        assert_eq!(tl.value_at(ts(30)), None);
    }

    #[test]
    fn later_assertion_supersedes_overlap() {
        let elements = vec![
            el(1, iv(0, 10), 1, "apollo"),
            el(2, iv(5, 15), 2, "borealis"), // stored later, overlaps
        ];
        let tl = Timeline::build(&elements, ObjectId::new(1), "project", ts(100));
        assert_eq!(tl.value_at(ts(3)), Some(&Value::str("apollo")));
        assert_eq!(tl.value_at(ts(7)), Some(&Value::str("borealis")));
        assert_eq!(tl.value_at(ts(12)), Some(&Value::str("borealis")));
    }

    #[test]
    fn as_of_excludes_later_storage_and_deletions() {
        let mut corrected = el(1, iv(0, 10), 1, "apollo");
        corrected.tt_end = Some(ts(5)); // superseded at tt 5
        let replacement = el(2, iv(0, 10), 5, "borealis");
        let elements = vec![corrected, replacement];
        // As of tt 3: only the original.
        let before = Timeline::build(&elements, ObjectId::new(1), "project", ts(3));
        assert_eq!(before.value_at(ts(4)), Some(&Value::str("apollo")));
        // As of tt 50: the correction.
        let after = Timeline::build(&elements, ObjectId::new(1), "project", ts(50));
        assert_eq!(after.value_at(ts(4)), Some(&Value::str("borealis")));
    }

    #[test]
    fn gaps_are_preserved() {
        let elements = vec![el(1, iv(0, 5), 1, "a"), el(2, iv(10, 15), 2, "a")];
        let tl = Timeline::build(&elements, ObjectId::new(1), "project", ts(100));
        assert_eq!(tl.segments().len(), 2);
        assert!(!tl.is_contiguous());
        assert_eq!(tl.value_at(ts(7)), None);
    }

    #[test]
    fn temporal_aggregates() {
        use tempora_time::TimeDelta;
        // Salary 100 for 10 s, then 200 for 30 s: weighted mean 175.
        let elements = vec![
            Element::new(ElementId::new(1), ObjectId::new(1), iv(0, 10), ts(1))
                .with_attr("salary", 100.0),
            Element::new(ElementId::new(2), ObjectId::new(1), iv(10, 40), ts(2))
                .with_attr("salary", 200.0),
        ];
        let tl = Timeline::build(&elements, ObjectId::new(1), "salary", ts(100));
        let mean = tl.duration_weighted_mean().unwrap();
        assert!((mean - 175.0).abs() < 1e-9, "{mean}");
        assert_eq!(tl.coverage_ratio(), Some(1.0));
        let durations = tl.value_durations();
        assert_eq!(durations[0], (Value::Float(200.0), TimeDelta::from_secs(30)));
        assert_eq!(durations[1], (Value::Float(100.0), TimeDelta::from_secs(10)));
    }

    #[test]
    fn aggregates_with_gaps_and_strings() {
        let elements = vec![
            el(1, iv(0, 5), 1, "a"),
            el(2, iv(10, 15), 2, "a"),
            el(3, iv(15, 20), 3, "b"),
        ];
        let tl = Timeline::build(&elements, ObjectId::new(1), "project", ts(100));
        // Coverage: 15 s covered of the 20 s hull.
        assert!((tl.coverage_ratio().unwrap() - 0.75).abs() < 1e-9);
        // Strings have no weighted mean.
        assert_eq!(tl.duration_weighted_mean(), None);
        // "a" held for 10 s total across two segments.
        let durations = tl.value_durations();
        assert_eq!(durations[0].0, Value::str("a"));
        assert_eq!(durations[0].1, tempora_time::TimeDelta::from_secs(10));
        // Empty timeline aggregates.
        let empty = Timeline::default();
        assert_eq!(empty.coverage_ratio(), None);
        assert_eq!(empty.duration_weighted_mean(), None);
        assert!(empty.value_durations().is_empty());
    }

    #[test]
    fn foreign_objects_and_events_ignored() {
        let mut foreign = el(1, iv(0, 5), 1, "a");
        foreign.object = ObjectId::new(9);
        let event = Element::new(ElementId::new(2), ObjectId::new(1), ts(3), ts(2))
            .with_attr("project", "x");
        let tl = Timeline::build(&[foreign, event], ObjectId::new(1), "project", ts(100));
        assert!(tl.segments().is_empty());
        assert_eq!(tl.span(), None);
    }
}
