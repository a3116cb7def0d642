//! Each explicit claim the paper makes, as an executable test. Section
//! numbers refer to Jensen & Snodgrass, "Temporal Specialization",
//! ICDE 1992. Claims found to be erroneous during formalization are
//! asserted in their *corrected* form with the discrepancy noted (see
//! EXPERIMENTS.md).

use std::sync::Arc;

use tempora::core::lattice::{event_lattice, paper_figure2_edges};
use tempora::core::region::enumerate_region_families;
use tempora::core::spec::interevent::EventStamp;
use tempora::core::spec::regularity::{gcd_combined_unit, EventRegularitySpec, RegularDimension};
use tempora::prelude::*;

fn st(vt: i64, tt: i64) -> EventStamp {
    EventStamp::new(Timestamp::from_secs(vt), Timestamp::from_secs(tt))
}

// ---------------------------------------------------------------------
// §2 — the conceptual model.
// ---------------------------------------------------------------------

/// "no stored transaction time exceeds the current time."
#[test]
fn claim_s2_transaction_times_never_exceed_now() {
    let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(100)));
    let mut rel = TemporalRelation::new(schema, clock.clone());
    for i in 0..50_i64 {
        clock.advance(TimeDelta::from_secs(i));
        rel.insert(ObjectId::new(1), Timestamp::from_secs(i), vec![]).unwrap();
        assert!(rel.iter().all(|e| e.tt_begin <= rel.now()));
    }
}

/// "The historical state resulting from a transaction remains unchanged
/// from the time of that transaction to the time of the next transaction.
/// Therefore, the semantics of transaction time have been characterized as
/// stepwise constant."
#[test]
fn claim_s2_states_are_stepwise_constant() {
    let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let mut rel = TemporalRelation::new(schema, clock.clone());
    let mut commit_times = Vec::new();
    let mut ids = Vec::new();
    for i in 0..10_i64 {
        clock.set(Timestamp::from_secs(i * 100 + 100));
        if i % 3 == 2 && !ids.is_empty() {
            rel.delete(ids.remove(0)).unwrap();
        } else {
            ids.push(rel.insert(ObjectId::new(1), Timestamp::from_secs(i), vec![]).unwrap());
        }
        commit_times.push(clock.now());
    }
    // Between consecutive transactions the state is identical at every
    // probe instant.
    for w in commit_times.windows(2) {
        let reference: Vec<ElementId> = rel.iter_at(w[0]).map(|e| e.id).collect();
        for probe_s in (w[0].secs()..w[1].secs()).step_by(13) {
            let probe = Timestamp::from_secs(probe_s);
            let state: Vec<ElementId> = rel.iter_at(probe).map(|e| e.id).collect();
            assert_eq!(state, reference, "state changed between transactions at {probe}");
        }
    }
}

/// "If a particular event or interval is (logically) deleted, then
/// immediately re-inserted, the two resulting elements will have different
/// element surrogates, allowing the deletion and insertion points to be
/// unambiguously defined."
#[test]
fn claim_s2_reinsertion_yields_fresh_surrogate() {
    let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let mut rel = TemporalRelation::new(schema, clock.clone());
    clock.set(Timestamp::from_secs(10));
    let vt = Timestamp::from_secs(5);
    let first = rel.insert(ObjectId::new(1), vt, vec![]).unwrap();
    clock.set(Timestamp::from_secs(20));
    rel.delete(first).unwrap();
    let second = rel.insert(ObjectId::new(1), vt, vec![]).unwrap();
    assert_ne!(first, second);
    let e1 = rel.get(first).unwrap();
    let e2 = rel.get(second).unwrap();
    // Deletion and re-insertion are distinct transactions, each with its
    // own unique transaction time (§2), so the points are unambiguous:
    let tt_d = e1.tt_end.expect("deleted");
    assert!(tt_d <= e2.tt_begin);
    assert!(e2.tt_begin - tt_d <= TimeDelta::RESOLUTION, "immediate re-insert");
    assert!(e1.existence_interval().is_some());
    assert!(e2.is_current());
}

// ---------------------------------------------------------------------
// §3.1 — isolated events.
// ---------------------------------------------------------------------

/// The completeness theorem: "With one line, there are … six distinct
/// specialized temporal event relations. With two lines, the[re] are five
/// possibilities … The result is a total of eleven types."
#[test]
fn claim_s31_completeness_eleven_types() {
    let families = enumerate_region_families();
    assert_eq!(families.iter().filter(|f| f.lines == 1).count(), 6);
    assert_eq!(families.iter().filter(|f| f.lines == 2).count(), 5);
    assert_eq!(families.len(), 11);
}

/// Figure 2's generalization/specialization structure, derived from
/// region subsumption, matches the published figure edge for edge.
#[test]
fn claim_s31_figure2_derivable() {
    let derived: std::collections::BTreeSet<_> =
        event_lattice().hasse_edges().into_iter().collect();
    let published: std::collections::BTreeSet<_> = paper_figure2_edges().into_iter().collect();
    assert_eq!(derived, published);
}

/// "a relation is, say, deletion retroactive and insertion retroactive,
/// it can also be considered modification retroactive" — declaring the
/// spec for both references makes modifications obey it too.
#[test]
fn claim_s31_modification_retroactive() {
    let schema = RelationSchema::builder("r", Stamping::Event)
        .event_spec_for(EventSpec::Retroactive, TtReference::Insertion)
        .event_spec_for(EventSpec::Retroactive, TtReference::Deletion)
        .build()
        .unwrap();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(100)));
    let mut rel = TemporalRelation::new(schema, clock.clone());
    let id = rel.insert(ObjectId::new(1), Timestamp::from_secs(50), vec![]).unwrap();
    // A modification whose *new* fact is future-valid violates the
    // insertion half.
    clock.set(Timestamp::from_secs(200));
    assert!(rel.modify(id, Timestamp::from_secs(900), vec![]).is_err());
    // A modification of a still-future fact… cannot exist here because
    // insertion-retroactive forbids storing future facts at all — the two
    // halves together are exactly "modification retroactive".
    assert!(rel.modify(id, Timestamp::from_secs(150), vec![]).is_ok());
}

/// "a degenerate temporal relation can be advantageously treated as a
/// rollback relation due to the fact that relations are append-only and
/// elements are entered in time-stamp order."
#[test]
fn claim_s31_degenerate_treated_as_rollback() {
    let schema = RelationSchema::builder("r", Stamping::Event)
        .event_spec(EventSpec::Degenerate)
        .build()
        .unwrap();
    let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
    let mut rel = IndexedRelation::new(schema, clock.clone());
    assert!(rel.relation().is_append_only(), "degenerate ⇒ append-only storage");
    for i in 1..=100_i64 {
        let t = Timestamp::from_secs(i);
        clock.set(t);
        rel.insert(ObjectId::new(1), t, vec![]).unwrap();
    }
    // A valid-time query and the rollback query coincide: both are binary
    // searches of the same order, touching O(answer) elements.
    let r = rel.execute(Query::Timeslice { vt: Timestamp::from_secs(50) });
    assert_eq!(r.stats.strategy, "append-order-search");
    assert_eq!(r.stats.returned, 1);
    assert!(r.stats.examined <= 2);
}

// ---------------------------------------------------------------------
// §3.2 — inter-event.
// ---------------------------------------------------------------------

/// "In globally sequential relations … valid time can be approximated
/// with transaction time": the tt-order and vt-order of a sequential
/// extension agree.
#[test]
fn claim_s32_sequential_orders_agree() {
    let ext = [st(1, 2), st(3, 4), st(6, 5), st(8, 9)];
    assert!(tempora::core::spec::interevent::OrderingSpec::GloballySequential.holds_for(&ext));
    let mut by_tt: Vec<EventStamp> = ext.to_vec();
    by_tt.sort_by_key(|s| s.tt);
    let mut by_vt: Vec<EventStamp> = ext.to_vec();
    by_vt.sort_by_key(|s| s.vt);
    assert_eq!(by_tt, by_vt);
}

/// "Sequentiality is generally a stronger property than non-decreasing.
/// However, if the relation is degenerate then the two properties are
/// identical."
#[test]
fn claim_s32_sequential_vs_nondecreasing() {
    use tempora::core::spec::interevent::OrderingSpec;
    // Strictly stronger in general: witness.
    let witness = [st(5, 1), st(6, 2)];
    assert!(OrderingSpec::GloballyNonDecreasing.holds_for(&witness));
    assert!(!OrderingSpec::GloballySequential.holds_for(&witness));
    // Identical on degenerate extensions.
    for seed in 0..200_i64 {
        let ext: Vec<EventStamp> = (0..6)
            .map(|i| {
                let t = (seed * 31 + i * 17) % 100;
                st(t, t)
            })
            .collect();
        // De-duplicate tts (transaction times are unique) by filtering.
        let mut seen = std::collections::BTreeSet::new();
        let ext: Vec<EventStamp> = ext.into_iter().filter(|s| seen.insert(s.tt)).collect();
        assert_eq!(
            OrderingSpec::GloballySequential.holds_for(&ext),
            OrderingSpec::GloballyNonDecreasing.holds_for(&ext),
            "seed {seed}"
        );
    }
}

/// The gcd combination (paper example Δt₁ = 28 s, Δt₂ = 6 s ⇒ 2 s), in
/// its corrected per-dimension form, plus the erratum that the paper's
/// same-k temporal regularity does NOT follow.
#[test]
fn claim_s32_gcd_combination_corrected() {
    let stamps = [st(0, 0), st(6, 28), st(18, 84), st(30, 140)];
    assert!(EventRegularitySpec::new(RegularDimension::TransactionTime, TimeDelta::from_secs(28))
        .holds_for(&stamps));
    assert!(EventRegularitySpec::new(RegularDimension::ValidTime, TimeDelta::from_secs(6))
        .holds_for(&stamps));
    let g = gcd_combined_unit(TimeDelta::from_secs(28), TimeDelta::from_secs(6));
    assert_eq!(g, TimeDelta::from_secs(2));
    // Corrected claim: both dimensions are regular at the gcd.
    assert!(EventRegularitySpec::new(RegularDimension::TransactionTime, g).holds_for(&stamps));
    assert!(EventRegularitySpec::new(RegularDimension::ValidTime, g).holds_for(&stamps));
    // Erratum: same-k temporal regularity does not follow.
    assert!(!EventRegularitySpec::new(RegularDimension::Temporal, g).holds_for(&stamps));
}

/// "For the strict case, however, valid and transaction time event
/// regularity does not imply temporal event regularity."
#[test]
fn claim_s32_strict_does_not_compose() {
    let stamps = [st(0, 0), st(10, 10), st(30, 20), st(20, 30), st(40, 40)];
    let u = TimeDelta::from_secs(10);
    assert!(EventRegularitySpec::new(RegularDimension::TransactionTime, u)
        .strict()
        .holds_for(&stamps));
    assert!(EventRegularitySpec::new(RegularDimension::ValidTime, u)
        .strict()
        .holds_for(&stamps));
    assert!(!EventRegularitySpec::new(RegularDimension::Temporal, u)
        .strict()
        .holds_for(&stamps));
}

/// ERRATUM (paper §3.2): "the non-strict versions have the additional
/// property … that the per partition variant implies the global variant."
/// False — phase-shifted partitions are each regular while their union is
/// not. We assert the counterexample.
#[test]
fn erratum_s32_per_partition_does_not_imply_global() {
    let u = TimeDelta::from_secs(10);
    let spec = EventRegularitySpec::new(RegularDimension::TransactionTime, u);
    let partition_a = [st(0, 0), st(0, 20), st(0, 40)];
    let partition_b = [st(0, 5), st(0, 25)];
    assert!(spec.holds_for(&partition_a));
    assert!(spec.holds_for(&partition_b));
    let union: Vec<EventStamp> = partition_a.iter().chain(&partition_b).copied().collect();
    assert!(!spec.holds_for(&union), "the union is NOT tt-regular: the paper's claim fails");
}

/// The constraint engine realizes the per-partition semantics: the same
/// phase-shifted data is accepted per surrogate and rejected per relation.
#[test]
fn erratum_s32_engine_realizes_both_bases() {
    let u = TimeDelta::from_secs(10);
    let make = |basis: Basis| {
        RelationSchema::builder("r", Stamping::Event)
            .event_regularity(
                EventRegularitySpec::new(RegularDimension::TransactionTime, u),
                basis,
            )
            .build()
            .unwrap()
    };
    let data = [
        (1_u64, 0_i64),
        (2, 5),
        (1, 20),
        (2, 25),
    ];
    for (basis, expect_ok) in [(Basis::PerObject, true), (Basis::PerRelation, false)] {
        let clock = Arc::new(ManualClock::new(Timestamp::from_secs(-1)));
        let mut rel = TemporalRelation::new(make(basis), clock.clone());
        let mut all_ok = true;
        for &(obj, tt) in &data {
            clock.set(Timestamp::from_secs(tt));
            if rel.insert(ObjectId::new(obj), Timestamp::from_secs(0), vec![]).is_err() {
                all_ok = false;
            }
        }
        assert_eq!(all_ok, expect_ok, "basis {basis}");
    }
}

// ---------------------------------------------------------------------
// §3.3 / §3.4 — intervals.
// ---------------------------------------------------------------------

/// "if the relation is, say, vt⁻-retroactive and vt⁺-retroactive, it may
/// simply be termed retroactive": the Both-endpoint constraint equals the
/// conjunction of the two single-endpoint constraints.
#[test]
fn claim_s33_both_endpoints_is_conjunction() {
    use tempora::core::spec::interval::{Endpoint, IntervalEndpointSpec};
    let both = IntervalEndpointSpec::new(Endpoint::Both, EventSpec::Retroactive);
    let begin = IntervalEndpointSpec::new(Endpoint::Begin, EventSpec::Retroactive);
    let end = IntervalEndpointSpec::new(Endpoint::End, EventSpec::Retroactive);
    for (b, e, tt) in [(0_i64, 10, 20), (0, 10, 10), (0, 10, 5), (5, 8, 0), (0, 2, 1)] {
        let valid = Interval::new(Timestamp::from_secs(b), Timestamp::from_secs(e)).unwrap();
        let tt = Timestamp::from_secs(tt);
        let g = Granularity::Microsecond;
        assert_eq!(
            both.holds(valid, tt, g),
            begin.holds(valid, tt, g) && end.holds(valid, tt, g),
            "interval [{b},{e}) at tt {tt}"
        );
    }
}

/// "Of these, the most interesting is successive transaction time meets,
/// which is defined above as globally contiguous."
#[test]
fn claim_s34_contiguous_is_st_meets() {
    assert_eq!(
        tempora::core::spec::interinterval::SuccessionSpec::GLOBALLY_CONTIGUOUS,
        tempora::core::spec::interinterval::SuccessionSpec::SuccessiveTt(AllenRelation::Meets)
    );
}

/// "Allen has demonstrated that there exist a total of thirteen possible
/// relationships between two intervals" — and exactly one holds per pair.
#[test]
fn claim_s34_thirteen_exclusive_relations() {
    assert_eq!(AllenRelation::ALL.len(), 13);
    let mut intervals = Vec::new();
    for b in 0..8_i64 {
        for e in (b + 1)..8 {
            intervals.push(
                Interval::new(Timestamp::from_secs(b), Timestamp::from_secs(e)).unwrap(),
            );
        }
    }
    for &a in &intervals {
        for &b in &intervals {
            let holding = AllenRelation::ALL.iter().filter(|r| r.holds(a, b)).count();
            assert_eq!(holding, 1);
        }
    }
}

/// §2: "the conceptual model of a sequence of historical states does not
/// imply (nor disallow) a particular physical representation" — three
/// representations answer identically:
///
/// 1. the tuple-stamped element store, rolled back with `snapshot_at`;
/// 2. the write-ahead log of insertion, deletion, and modification
///    operations (the \[JMRS90\] backlog representation), replayed by
///    reopening the database on its storage;
/// 3. the \[Gad88\] attribute-stamped store.
///
/// The first two must agree on the historical state at every transaction
/// time probe, over a mixed insert/delete/modify history.
#[test]
fn claim_s2_representations_are_interchangeable() {
    use tempora::storage::AttributeStore;
    use tempora::wal::{DurabilityConfig, DurableDatabase, MemStorage};

    let storage = Arc::new(MemStorage::new());
    let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
    let open = |clock: Arc<ManualClock>| {
        DurableDatabase::open(storage.clone(), clock, DurabilityConfig::default())
            .expect("open")
            .0
    };
    let db = open(clock.clone());
    db.execute_ddl("CREATE TEMPORAL RELATION log (k KEY) AS EVENT").unwrap();
    db.execute_ddl("CREATE TEMPORAL RELATION staff (emp KEY, project VARYING) AS INTERVAL")
        .unwrap();

    // A mixed event history: inserts, deletes, modifications.
    let mut ids = Vec::new();
    for i in 0..60_i64 {
        clock.set(Timestamp::from_secs(i * 10 + 5));
        let vt = Timestamp::from_secs(i);
        let victim = (!ids.is_empty()).then(|| ids[usize::try_from(i).unwrap() % ids.len()]);
        let victim_current = victim.is_some_and(|v| {
            db.db()
                .with_relation("log", |rel| rel.relation().get(v).is_some_and(Element::is_current))
                .unwrap()
        });
        match (i % 5, victim) {
            (3, Some(v)) if victim_current => {
                db.delete("log", v).unwrap();
            }
            (4, Some(v)) if victim_current => {
                ids.push(db.modify("log", v, Timestamp::from_secs(i + 1), vec![]).unwrap());
            }
            (4, Some(_)) => {}
            _ => ids.push(db.insert("log", ObjectId::new(1), vt, vec![]).unwrap()),
        }
    }
    // An interval-stamped assignment history, one modification included.
    let iv = |b: i64, e: i64| {
        Interval::new(Timestamp::from_secs(b), Timestamp::from_secs(e)).unwrap()
    };
    let project = |p: &str| vec![(AttrName::new("project"), Value::str(p))];
    let mut assignments = Vec::new();
    for (i, (b, e, p)) in [(0, 7, "apollo"), (7, 14, "apollo"), (14, 21, "borealis")]
        .into_iter()
        .enumerate()
    {
        clock.set(Timestamp::from_secs(700 + i64::try_from(i).unwrap() * 10));
        assignments.push(db.insert("staff", ObjectId::new(1), iv(b, e), project(p)).unwrap());
    }
    clock.set(Timestamp::from_secs(740));
    db.modify("staff", assignments[1], iv(7, 14), project("caravel")).unwrap();

    // Representations 1 and 2: every historical state of both relations,
    // rolled back in place and rebuilt from the replayed log.
    let states = |db: &DurableDatabase| -> Vec<Vec<Element>> {
        (0..760)
            .step_by(7)
            .flat_map(|probe| {
                let snap = db.db().snapshot_at(Timestamp::from_secs(probe));
                ["SELECT FROM log", "SELECT FROM staff"]
                    .map(|tql| snap.query(tql).unwrap().elements)
            })
            .collect()
    };
    let rolled_back = states(&db);
    assert!(rolled_back.iter().any(|state| state.len() > 10));
    drop(db);
    let replayed = open(Arc::new(ManualClock::new(Timestamp::EPOCH)));
    assert_eq!(states(&replayed), rolled_back);

    // Representation 3: attribute-stamped store, per-instant values.
    let staff: Vec<Element> = replayed
        .db()
        .with_relation("staff", |rel| rel.relation().iter().cloned().collect())
        .unwrap();
    let attr_store = AttributeStore::from_elements(&staff);
    assert!(attr_store.is_homogeneous());
    for probe in 0..21_i64 {
        let vt = Timestamp::from_secs(probe);
        let tuple_answer = staff
            .iter()
            .filter(|e| e.is_current() && e.valid.covers(vt))
            .max_by_key(|e| e.tt_begin)
            .and_then(|e| e.attr("project"));
        assert_eq!(
            attr_store.value_at(ObjectId::new(1), "project", vt),
            tuple_answer,
            "at {probe}"
        );
    }
}

/// §4: "In general, these time-stamps are independent … In many
/// situations, however, the time points of facts are restricted to
/// limited regions of this space" — the general relation accepts
/// everything; every specialized relation rejects something.
#[test]
fn claim_s4_every_specialization_restricts() {
    let g = Granularity::Microsecond;
    let probes: Vec<(Timestamp, Timestamp)> = (-50..50)
        .map(|o| (Timestamp::from_secs(1_000 + o), Timestamp::from_secs(1_000)))
        .collect();
    for kind in EventSpecKind::ALL {
        let spec = kind.canonical(Bound::secs(10));
        let accepted = probes.iter().filter(|(vt, tt)| spec.holds(*vt, *tt, g)).count();
        if kind == EventSpecKind::General {
            assert_eq!(accepted, probes.len());
        } else {
            assert!(accepted < probes.len(), "{kind} must reject something");
        }
    }
}
