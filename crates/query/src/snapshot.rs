//! Lock-free snapshot query execution.
//!
//! Transaction time is append-only (§2), so the state of a relation at
//! tick `t` is a *prefix* of its element sequence — an observation the
//! storage layer turns into cheap immutable views
//! ([`tempora_storage::TemporalRelation::snapshot_elements`]). A
//! [`SnapshotRelation`] couples such a view with a pin tick and answers
//! every [`Query`] form against the image the relation had at the pin:
//! elements stored after the pin are invisible, and deletions stamped
//! after the pin are undone (their `tt_end` is clamped back to "current").
//!
//! Queries reuse the specialization-driven planner
//! ([`crate::plan_query_annotated`]), and every plan keeps its access
//! path. Order-exploiting plans (tt-prefix, tt-window, append-order
//! search) binary-search the base order, which the view preserves. Point
//! probes, interval probes and object scans go through the immutable index
//! segments built when each storage chunk sealed (see
//! [`tempora_storage::chunks`]): positions at or past the visible prefix
//! are dropped, the pinned predicate filters the rest, and hits come back
//! in position order — the order a prefix scan would return them. The
//! executor takes no locks and touches no shared mutable state: a server
//! thread can run it while ingest batches apply and WAL appends proceed.
//!
//! Each execution adds its element counts to
//! `tempora_query_examined_total{strategy}` and
//! `tempora_query_returned_total{strategy}`.

use std::sync::Arc;

use tempora_time::Timestamp;

use tempora_core::{Element, RelationSchema};
use tempora_storage::ElementChunks;

use crate::exec::{tt_window_edges, ExecStats, QueryResult};
use crate::optimizer::plan_query_annotated;
use crate::plan::{Plan, Query, Residual};

/// An immutable view of one relation pinned at a transaction tick.
///
/// Cheap to clone (chunk pointers plus a schema `Arc`); safe to send to
/// another thread and query long after the live relation has moved on.
#[derive(Debug, Clone)]
pub struct SnapshotRelation {
    schema: Arc<RelationSchema>,
    elements: ElementChunks,
    pin: Timestamp,
    /// Number of leading elements with `tt_b ≤ pin` — the visible prefix.
    visible: usize,
}

impl SnapshotRelation {
    /// Pins a chunk view at `pin`: elements stored after the pin are
    /// outside the visible prefix and never consulted.
    #[must_use]
    pub fn new(schema: Arc<RelationSchema>, elements: ElementChunks, pin: Timestamp) -> Self {
        let visible = elements.partition_point(|e| e.tt_begin <= pin);
        SnapshotRelation {
            schema,
            elements,
            pin,
            visible,
        }
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// The transaction tick the view is pinned at.
    #[must_use]
    pub fn pin(&self) -> Timestamp {
        self.pin
    }

    /// Number of elements visible at the pin (stored at or before it).
    #[must_use]
    pub fn len(&self) -> usize {
        self.visible
    }

    /// Whether nothing was stored at or before the pin.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.visible == 0
    }

    /// Every element visible at the pin, in transaction-time order, as
    /// the pinned image saw it: deletions stamped after the pin are
    /// clamped back to current. This is the raw material of
    /// snapshot dumps and differential oracles.
    pub fn iter_pinned(&self) -> impl Iterator<Item = Element> + '_ {
        let pin = self.pin;
        self.elements
            .range(0..self.visible)
            .map(move |e| clamp_to_pin(e, pin))
    }

    /// Plans and executes a query against the pinned image. Semantically
    /// identical to running the same query on the live relation at the
    /// moment of the pin; "current" means *current as of the pin*.
    #[must_use]
    pub fn execute(&self, query: Query) -> QueryResult {
        let annotated = plan_query_annotated(&self.schema, query);
        self.run(query, annotated.plan, annotated.residual)
    }

    fn run(&self, query: Query, plan: Plan, residual: Residual) -> QueryResult {
        let strategy = plan.strategy_name();
        let _span = tempora_obs::span_with("snapshot-query-execute", strategy);
        let sw = tempora_obs::Stopwatch::start();
        let pin = self.pin;
        let visible = self.visible;
        let predicate: Box<dyn Fn(&Element) -> bool> = match (plan, residual) {
            // A life-line includes deleted elements: the object filter is
            // the whole predicate.
            (Plan::ObjectScan { object }, _) => Box::new(move |e| e.object == object),
            (_, Residual::Full) => pinned_predicate(query, pin),
            (_, Residual::CurrencyOnly) => Box::new(move |e| e.existed_at(pin)),
        };
        // Probes name positions; a view without the probed key (never
        // planned, since plan and key both follow `select_index`) falls
        // back to the visible prefix.
        let probed = |positions: Option<Vec<usize>>| {
            positions.map_or(Candidates::Range(0..visible), Candidates::Positions)
        };
        let candidates = match plan {
            Plan::FullScan => Candidates::Range(0..visible),
            Plan::TtPrefixScan { tt } => {
                let eff = tt.min(pin);
                Candidates::Range(0..self.elements.partition_point(|e| e.tt_begin <= eff))
            }
            Plan::ObjectScan { object } => {
                Candidates::Positions(self.elements.object_positions(object, visible))
            }
            Plan::PointProbe { from, to } => {
                probed(self.elements.point_positions(from, to, visible))
            }
            Plan::IntervalProbe { from, to } => {
                probed(self.elements.interval_positions(from, to, visible))
            }
            Plan::AppendOrderSearch { from, to } => {
                if self.schema.is_degenerate() || self.schema.is_vt_ordered() {
                    // The base order is also valid-time order; binary
                    // search the run, clipped to the visible prefix.
                    let lo = self
                        .elements
                        .partition_point(|e| e.valid.begin() < from)
                        .min(visible);
                    let hi = self
                        .elements
                        .partition_point(|e| e.valid.begin() < to)
                        .min(visible);
                    Candidates::Range(lo..hi)
                } else {
                    Candidates::Range(0..visible)
                }
            }
            Plan::TtWindowScan { band, from, to } => {
                let (lo_edge, hi_edge) = tt_window_edges(&self.schema, query, band, from, to);
                // Elements stored after the pin are invisible regardless
                // of the window.
                let hi_edge = hi_edge.min(pin);
                let start = self.elements.partition_point(|e| e.tt_begin < lo_edge);
                let end = self.elements.partition_point(|e| e.tt_begin <= hi_edge);
                Candidates::Range(start..end)
            }
            Plan::EmptyScan => Candidates::Range(0..0),
        };

        let mut examined = 0usize;
        let mut elements: Vec<Element> = Vec::new();
        let mut visit = |e: &Element| {
            examined += 1;
            if predicate(e) {
                elements.push(clamp_to_pin(e, pin));
            }
        };
        match candidates {
            Candidates::Range(range) => self.elements.range(range).for_each(&mut visit),
            Candidates::Positions(positions) => positions
                .into_iter()
                .filter_map(|p| self.elements.get(p))
                .for_each(&mut visit),
        }
        sw.record(&tempora_obs::histogram_with(
            "tempora_query_exec_seconds",
            "operator",
            strategy,
        ));
        let returned = elements.len();
        tempora_obs::counter_with("tempora_query_examined_total", "strategy", strategy)
            .add(examined as u64);
        tempora_obs::counter_with("tempora_query_returned_total", "strategy", strategy)
            .add(returned as u64);
        QueryResult {
            elements,
            stats: ExecStats {
                examined,
                returned,
                strategy,
            },
        }
    }
}

/// What a plan visits: a contiguous run of positions, or the ascending
/// positions an index segment probe named.
enum Candidates {
    Range(std::ops::Range<usize>),
    Positions(Vec<usize>),
}

/// An element as the pinned image stored it: a deletion stamped after the
/// pin had not happened yet, so the clamped element is current.
fn clamp_to_pin(e: &Element, pin: Timestamp) -> Element {
    let mut clamped = e.clone();
    if clamped.tt_end.is_some_and(|d| d > pin) {
        clamped.tt_end = None;
    }
    clamped
}

/// The query predicate evaluated against the *pinned* image: currency
/// means "current as of the pin", and rollback/as-of instants after the
/// pin see exactly the pin state (nothing newer exists in the view).
fn pinned_predicate(query: Query, pin: Timestamp) -> Box<dyn Fn(&Element) -> bool> {
    match query {
        Query::Current => Box::new(move |e| e.existed_at(pin)),
        Query::Rollback { tt } => {
            let eff = tt.min(pin);
            Box::new(move |e| e.existed_at(eff))
        }
        Query::Timeslice { vt } => Box::new(move |e| e.existed_at(pin) && e.valid.covers(vt)),
        Query::TimesliceRange { from, to } => Box::new(move |e| {
            e.existed_at(pin)
                && e.valid.begin() < to
                && (e.valid.end() > from || e.valid.begin() >= from)
        }),
        Query::ObjectHistory { object } => Box::new(move |e| e.object == object),
        Query::Bitemporal { tt, vt } => {
            let eff = tt.min(pin);
            Box::new(move |e| e.existed_at(eff) && e.valid.covers(vt))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::IndexedRelation;
    use tempora_core::{ElementId, ObjectId, Stamping};
    use tempora_time::{ManualClock, Timestamp, TransactionClock};

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn snapshot_of(rel: &IndexedRelation, pin: Timestamp) -> SnapshotRelation {
        SnapshotRelation::new(
            Arc::clone(rel.relation().schema()),
            rel.relation().snapshot_elements(),
            pin,
        )
    }

    fn sorted_ids(elements: &[Element]) -> Vec<ElementId> {
        let mut v: Vec<ElementId> = elements.iter().map(|e| e.id).collect();
        v.sort();
        v
    }

    #[test]
    fn snapshot_answers_match_live_answers_at_the_pin() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(ts(0)));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        let mut ids = Vec::new();
        for i in 0..200_i64 {
            clock.set(ts(i * 10 + 10));
            ids.push(rel.insert(ObjectId::new(1 + (i as u64 % 5)), ts(i * 7), vec![]).unwrap());
        }
        clock.set(ts(5_000));
        rel.delete(ids[3]).unwrap();
        let pin = clock.now();
        let snap = snapshot_of(&rel, pin);

        // Mutate the live relation *after* the pin.
        clock.set(ts(6_000));
        rel.delete(ids[7]).unwrap();
        clock.set(ts(6_010));
        rel.insert(ObjectId::new(1), ts(9_999), vec![]).unwrap();

        // Live answers at the pin are rollbacks; snapshot answers are the
        // same sets even though "current" differs live.
        for q in [
            Query::Current,
            Query::Rollback { tt: ts(500) },
            Query::Rollback { tt: ts(9_999) },
            Query::Timeslice { vt: ts(7 * 50) },
            Query::TimesliceRange { from: ts(100), to: ts(400) },
            Query::ObjectHistory { object: ObjectId::new(2) },
            Query::Bitemporal { tt: ts(1_000), vt: ts(7 * 50) },
        ] {
            let from_snap = snap.execute(q);
            // The live oracle: replay the same predicate against the
            // pinned prefix by hand.
            let expected: Vec<ElementId> = rel
                .relation()
                .iter()
                .filter(|e| e.tt_begin <= pin)
                .map(|e| {
                    let mut c = (*e).clone();
                    if c.tt_end.is_some_and(|d| d > pin) {
                        c.tt_end = None;
                    }
                    c
                })
                .filter(|e| pinned_predicate(q, pin)(e))
                .map(|e| e.id)
                .collect();
            let mut expected = expected;
            expected.sort();
            assert_eq!(sorted_ids(&from_snap.elements), expected, "query {q}");
        }
        // Post-pin writes are invisible.
        assert!(snap
            .execute(Query::Current)
            .elements
            .iter()
            .all(|e| e.valid.begin() != ts(9_999)));
        // The element deleted after the pin reads as current in the view.
        let cur = snap.execute(Query::Current);
        assert!(cur.elements.iter().any(|e| e.id == ids[7] && e.is_current()));
    }

    #[test]
    fn ordered_plans_keep_their_binary_searches() {
        use tempora_core::spec::interevent::OrderingSpec;
        use tempora_core::Basis;
        let schema = RelationSchema::builder("s", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        let clock = Arc::new(ManualClock::new(ts(0)));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..500_i64 {
            clock.set(ts(i * 10 + 5));
            rel.insert(ObjectId::new(1), ts(i * 10), vec![]).unwrap();
        }
        let snap = snapshot_of(&rel, clock.now());
        let result = snap.execute(Query::TimesliceRange { from: ts(1_000), to: ts(1_100) });
        assert_eq!(result.stats.strategy, "append-order-search");
        assert_eq!(result.stats.returned, 10);
        assert!(
            result.stats.examined <= 11,
            "binary search must survive the snapshot, examined {}",
            result.stats.examined
        );
    }

    #[test]
    fn index_probes_degrade_to_prefix_scan_but_stay_exact() {
        // Named for the behaviour it used to pin down: probes now go
        // through the index segments and examine only their hits.
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(ts(0)));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..100_i64 {
            clock.set(ts(i + 1));
            rel.insert(ObjectId::new(1), ts(i * 1_000), vec![]).unwrap();
        }
        let snap = snapshot_of(&rel, clock.now());
        let live = rel.execute(Query::Timeslice { vt: ts(50_000) });
        assert_eq!(live.stats.strategy, "point-probe");
        let snapped = snap.execute(Query::Timeslice { vt: ts(50_000) });
        assert_eq!(snapped.stats.strategy, "point-probe");
        assert_eq!(snapped.stats.examined, 1);
        assert_eq!(sorted_ids(&snapped.elements), sorted_ids(&live.elements));
    }

    #[test]
    fn pin_in_the_past_replays_history() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(ts(0)));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        clock.set(ts(10));
        let a = rel.insert(ObjectId::new(1), ts(5), vec![]).unwrap();
        clock.set(ts(20));
        rel.insert(ObjectId::new(2), ts(6), vec![]).unwrap();
        clock.set(ts(30));
        rel.delete(a).unwrap();

        // Pinned between the writes: only the first element, still alive.
        let mid = snapshot_of(&rel, ts(15));
        assert_eq!(mid.len(), 1);
        let cur = mid.execute(Query::Current);
        assert_eq!(cur.stats.returned, 1);
        assert_eq!(cur.elements[0].id, a);
        assert!(cur.elements[0].is_current(), "pre-pin image: not yet deleted");

        // Pinned after the delete: the deletion shows.
        let end = snapshot_of(&rel, ts(30));
        assert_eq!(end.execute(Query::Current).stats.returned, 1);
        assert_eq!(end.len(), 2);
        let pinned: Vec<Element> = end.iter_pinned().collect();
        assert_eq!(pinned.len(), 2);
        assert_eq!(pinned[0].tt_end, Some(ts(30)));
    }
}
