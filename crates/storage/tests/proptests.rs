//! Property-based tests for the storage substrate: random operation
//! sequences preserve the invariants of §2's sequence-of-historical-states
//! model in the element store, for both of its orderings, and through the
//! relation façade.

use std::sync::Arc;

use proptest::prelude::*;

use tempora_core::spec::interevent::OrderingSpec;
use tempora_core::{Basis, Element, ElementId, ObjectId, RelationSchema, Stamping};
use tempora_storage::{ElementStore, TemporalRelation};
use tempora_time::{ManualClock, TimeDelta, Timestamp};

fn ts(v: i64) -> Timestamp {
    Timestamp::from_secs(v)
}

/// A random operation against a relation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { object: u64, vt: i64 },
    Delete { victim: usize },
    Modify { victim: usize, vt: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0_u64..5, -500_i64..500).prop_map(|(object, vt)| Op::Insert { object, vt }),
        (0_usize..64).prop_map(|victim| Op::Delete { victim }),
        (0_usize..64, -500_i64..500).prop_map(|(victim, vt)| Op::Modify { victim, vt }),
    ]
}

proptest! {
    /// The element store's rollback view is consistent with the element
    /// lifecycle: an element is in `iter_at(tt)` exactly when
    /// `tt ∈ [tt_b, tt_d)`. Runs on a general relation's store and on a
    /// globally sequential relation's (valid-time-ordered) store; for the
    /// latter the generated valid times are made non-decreasing in arrival
    /// order, as the schema promises.
    #[test]
    fn tuple_store_rollback_consistency(
        ops in prop::collection::vec(op_strategy(), 0..80),
        ordered in any::<bool>(),
    ) {
        let mut schema = RelationSchema::builder("r", Stamping::Event);
        if ordered {
            schema = schema.ordering(OrderingSpec::GloballySequential, Basis::PerRelation);
        }
        let mut store = ElementStore::new(&schema.build().unwrap());
        prop_assert_eq!(store.is_vt_ordered(), ordered);
        // In the ordered case each generated vt becomes a non-negative step
        // above the last stored valid time.
        let mut last_vt = -500_i64;
        let mut next_vt = |vt: i64| {
            if ordered {
                last_vt += vt.rem_euclid(20);
                last_vt
            } else {
                vt
            }
        };
        let mut next_id = 0_u64;
        let mut live: Vec<ElementId> = Vec::new();
        let mut tt = 0_i64;
        for op in &ops {
            tt += 10;
            match *op {
                Op::Insert { object, vt } => {
                    let e = Element::new(
                        ElementId::new(next_id),
                        ObjectId::new(object),
                        ts(next_vt(vt)),
                        ts(tt),
                    );
                    store.insert(e).unwrap();
                    live.push(ElementId::new(next_id));
                    next_id += 1;
                }
                Op::Delete { victim } if !live.is_empty() => {
                    let id = live.remove(victim % live.len());
                    store.delete(id, ts(tt)).unwrap();
                }
                Op::Modify { victim, vt } if !live.is_empty() => {
                    let id = live.remove(victim % live.len());
                    store.delete(id, ts(tt)).unwrap();
                    let obj = store.get(id).unwrap().object;
                    let e = Element::new(ElementId::new(next_id), obj, ts(next_vt(vt)), ts(tt + 1));
                    tt += 1;
                    store.insert(e).unwrap();
                    live.push(ElementId::new(next_id));
                    next_id += 1;
                }
                _ => {}
            }
        }
        // Check the rollback view at every 10-second tick against the
        // per-element lifecycle predicate.
        for probe in (0..=tt).step_by(10) {
            let visible: std::collections::BTreeSet<ElementId> =
                store.iter_at(ts(probe)).map(|e| e.id).collect();
            for e in store.iter() {
                prop_assert_eq!(
                    visible.contains(&e.id),
                    e.existed_at(ts(probe)),
                    "element {} at tt {}", e.id, probe
                );
            }
        }
        // Current view = elements with no deletion stamp.
        prop_assert_eq!(store.current_len(), live.len());
    }

    /// The relation façade's counters and views stay mutually consistent
    /// under random operations (general schema: everything admissible).
    #[test]
    fn relation_counters_consistent(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
        let mut rel = TemporalRelation::new(schema, clock.clone());
        let mut live: Vec<ElementId> = Vec::new();
        for op in &ops {
            clock.advance(TimeDelta::from_secs(10));
            match *op {
                Op::Insert { object, vt } => {
                    live.push(rel.insert(ObjectId::new(object), ts(vt), vec![]).unwrap());
                }
                Op::Delete { victim } if !live.is_empty() => {
                    let id = live.remove(victim % live.len());
                    rel.delete(id).unwrap();
                }
                Op::Modify { victim, vt } if !live.is_empty() => {
                    let idx = victim % live.len();
                    let id = live.remove(idx);
                    live.push(rel.modify(id, ts(vt), vec![]).unwrap());
                }
                _ => {}
            }
        }
        let stats = rel.stats();
        prop_assert_eq!(rel.iter_current().count(), live.len());
        prop_assert_eq!(
            rel.len() as u64,
            stats.inserts + stats.modifications,
            "every stored element came from an insert or a modification"
        );
        prop_assert_eq!(stats.rejections, 0);
        // The current view is exactly the rollback view at `now`.
        let now = rel.now();
        let current: Vec<ElementId> = rel.iter_current().map(|e| e.id).collect();
        let at_now: Vec<ElementId> = rel.iter_at(now).map(|e| e.id).collect();
        prop_assert_eq!(current, at_now);
    }

    /// tt_range returns exactly the elements with tt_b in the window.
    #[test]
    fn tt_range_exact(
        n in 1_usize..60,
        lo in 0_i64..700,
        width in 0_i64..700,
    ) {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
        let mut rel = TemporalRelation::new(schema, clock.clone());
        for i in 0..n {
            clock.set(ts(i64::try_from(i).unwrap() * 10 + 10));
            rel.insert(ObjectId::new(1), ts(0), vec![]).unwrap();
        }
        let (a, b) = (ts(lo), ts(lo + width));
        let from_range: Vec<ElementId> = rel.tt_range(a, b).map(|e| e.id).collect();
        let from_scan: Vec<ElementId> = rel
            .iter()
            .filter(|e| a <= e.tt_begin && e.tt_begin <= b)
            .map(|e| e.id)
            .collect();
        prop_assert_eq!(from_range, from_scan);
    }
}
