//! End-to-end integration: every workload scenario flows through schema →
//! constraint engine → storage → index → query, and the answers are
//! mutually consistent across representations.

use std::sync::Arc;

use tempora::core::spec::interevent::EventStamp;
use tempora::prelude::*;
use tempora::storage::vacuum::{vacuum, VacuumPolicy};
use tempora::workload;

fn sorted_ids(elements: &[Element]) -> Vec<ElementId> {
    let mut v: Vec<ElementId> = elements.iter().map(|e| e.id).collect();
    v.sort();
    v
}

#[test]
fn every_event_workload_loads_and_answers_queries() {
    let workloads = vec![
        workload::monitoring(
            5,
            200,
            TimeDelta::from_secs(60),
            TimeDelta::from_secs(30),
            TimeDelta::from_secs(90),
            1,
        ),
        workload::payroll(20, 6, 2),
        workload::accounting(500, TimeDelta::from_hours(12), 3),
        workload::orders(500, 4),
        workload::archeology(200, 5),
        workload::bank_deposits(300, 6),
        workload::general(500, TimeDelta::from_hours(3), 7),
    ];
    for w in workloads {
        let relation = tempora::load_event_workload(&w)
            .unwrap_or_else(|e| panic!("{} failed to load: {e}", w.schema.name()));
        assert_eq!(relation.relation().len(), w.events.len(), "{}", w.schema.name());
        assert_eq!(relation.relation().stats().rejections, 0);

        // Probe several known valid times; planner answers must equal the
        // forced full scan.
        for idx in [0, w.events.len() / 2, w.events.len() - 1] {
            let vt = w.events[idx].vt;
            let fast = relation.execute(Query::Timeslice { vt });
            let slow = relation.execute_plan(Query::Timeslice { vt }, Plan::FullScan);
            assert_eq!(
                sorted_ids(&fast.elements),
                sorted_ids(&slow.elements),
                "{} probe {}",
                w.schema.name(),
                vt
            );
            assert!(fast.stats.returned >= 1, "{} must find its own event", w.schema.name());
        }

        // Rollback to the middle of loading sees exactly the prefix.
        let mid_tt = w.events[w.events.len() / 2].tt;
        let rb = relation.execute(Query::Rollback { tt: mid_tt });
        assert_eq!(rb.stats.returned, w.events.len() / 2 + 1, "{}", w.schema.name());
    }
}

#[test]
fn interval_workload_full_lifecycle() {
    let w = workload::assignments(6, 12, 11);
    let relation = tempora::load_interval_workload(&w).expect("conforms");
    // Every mid-week probe returns one assignment per employee.
    for week in 0..12_i64 {
        let probe = workload::workload_epoch() + TimeDelta::from_days(week * 7 + 3);
        let r = relation.execute(Query::Timeslice { vt: probe });
        assert_eq!(r.stats.returned, 6, "week {week}");
    }
    // Outside the covered range: nothing.
    let before = workload::workload_epoch() - TimeDelta::from_days(1);
    assert_eq!(relation.execute(Query::Timeslice { vt: before }).stats.returned, 0);
}

#[test]
fn backlog_and_tuple_store_agree_on_every_state() {
    use tempora::wal::{DurabilityConfig, DurableDatabase, MemStorage};

    // The write-ahead log is the backlog: reopening replays it.
    let storage = Arc::new(MemStorage::new());
    let open = |clock: Arc<ManualClock>| {
        DurableDatabase::open(storage.clone(), clock, DurabilityConfig::default())
            .expect("open")
            .0
    };
    let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
    let db = open(clock.clone());
    db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT").unwrap();
    let is_current = |db: &DurableDatabase, id| {
        db.db()
            .with_relation("r", |rel| rel.relation().get(id).is_some_and(Element::is_current))
            .unwrap()
    };
    let mut ids = Vec::new();
    // A mixed history: inserts, deletes, modifications.
    for i in 0..60_i64 {
        clock.set(Timestamp::from_secs(i * 10 + 5));
        match i % 5 {
            3 if !ids.is_empty() => {
                let victim = ids[usize::try_from(i).unwrap() % ids.len()];
                if is_current(&db, victim) {
                    db.delete("r", victim).unwrap();
                } else {
                    ids.push(
                        db.insert("r", ObjectId::new(1), Timestamp::from_secs(i), vec![]).unwrap(),
                    );
                }
            }
            4 if !ids.is_empty() => {
                let victim = ids[usize::try_from(i).unwrap() % ids.len()];
                if is_current(&db, victim) {
                    ids.push(db.modify("r", victim, Timestamp::from_secs(i + 1), vec![]).unwrap());
                }
            }
            _ => {
                ids.push(db.insert("r", ObjectId::new(1), Timestamp::from_secs(i), vec![]).unwrap());
            }
        }
    }
    // At every transaction instant, the rollback read of the tuple store
    // equals the same read after replaying the log.
    let states = |db: &DurableDatabase| -> Vec<Vec<ElementId>> {
        db.db()
            .with_relation("r", |rel| {
                (0..620)
                    .step_by(7)
                    .map(|probe| {
                        let tt = Timestamp::from_secs(probe);
                        let mut at: Vec<ElementId> =
                            rel.relation().iter_at(tt).map(|e| e.id).collect();
                        at.sort();
                        at
                    })
                    .collect()
            })
            .unwrap()
    };
    let from_store = states(&db);
    assert!(from_store.iter().any(|state| state.len() > 10));
    drop(db);
    let replayed = open(Arc::new(ManualClock::new(Timestamp::EPOCH)));
    for (probe, (store, log)) in from_store.iter().zip(&states(&replayed)).enumerate() {
        assert_eq!(store, log, "divergence at tt {}s", probe * 7);
    }
}

#[test]
fn vacuum_preserves_query_answers_over_the_retained_range() {
    let w = workload::accounting(1_000, TimeDelta::from_hours(2), 21);
    let clock = Arc::new(ManualClock::new(w.events[0].tt));
    let mut rel = TemporalRelation::new(Arc::clone(&w.schema), clock.clone());
    let mut ids = Vec::new();
    for e in &w.events {
        clock.set(e.tt);
        ids.push(rel.insert(e.object, e.vt, vec![]).unwrap());
    }
    // Supersede the first half (logical deletes).
    for id in &ids[..500] {
        clock.advance(TimeDelta::from_secs(1));
        rel.delete(*id).unwrap();
    }
    let now = clock.now();
    let horizon = w.events[800].vt;
    // Record pre-vacuum answers for post-horizon probes.
    let probes: Vec<Timestamp> = (800..1_000).step_by(37).map(|i| w.events[i].vt).collect();
    let before: Vec<usize> = probes
        .iter()
        .map(|&vt| rel.timeslice(vt).len())
        .collect();

    let reclaimed = vacuum(&mut rel, VacuumPolicy::ValidHorizon { horizon }, now);
    assert!(reclaimed > 0, "something must be reclaimable");

    // Current-state timeslices after the horizon are unchanged.
    let after: Vec<usize> = probes.iter().map(|&vt| rel.timeslice(vt).len()).collect();
    assert_eq!(before, after);
    // Current elements all survive.
    assert_eq!(rel.iter_current().count(), 500);
}

#[test]
fn advisor_schema_round_trips_through_ddl_vocabulary() {
    // Advise on a sample, then re-declare the advice's strongest spec via
    // DDL and confirm both schemas admit the sample identically.
    let w = workload::accounting(400, TimeDelta::from_hours(1), 9);
    let stamps: Vec<EventStamp> = w.events.iter().map(|e| EventStamp::new(e.vt, e.tt)).collect();
    let advice = tempora::design::advise_events("ledger2", &stamps, 0.5).unwrap();

    let elements: Vec<Element> = w
        .events
        .iter()
        .enumerate()
        .map(|(i, ge)| {
            Element::new(ElementId::new(u64::try_from(i).unwrap()), ge.object, ge.vt, ge.tt)
        })
        .collect();
    assert!(tempora::design::audit(&advice.schema, &elements).is_empty());

    // Express the recommendation in DDL.
    let (past, future) = match advice.recommended {
        EventSpec::StronglyBounded { past, future } => (past, future),
        ref other => panic!("accounting sample should infer strongly bounded, got {other}"),
    };
    let ddl = format!(
        "CREATE TEMPORAL RELATION ledger3 (account KEY) AS EVENT WITH STRONGLY BOUNDED {past} {future}"
    );
    let declared = tempora::design::parse_ddl(&ddl).expect("advice renders to valid DDL");
    assert!(tempora::design::audit(&declared, &elements).is_empty());
}

#[test]
fn workload_flows_through_the_text_interface() {
    // Drive a generated workload entirely through DDL/DML/TQL strings —
    // the path the REPL uses — and verify it matches the API path.
    use tempora::design::{Database, ExecOutcome};
    let w = workload::accounting(150, TimeDelta::from_hours(2), 33);
    let clock = Arc::new(ManualClock::new(w.events[0].tt));
    let db = Database::new(clock.clone());
    db.execute(
        "CREATE TEMPORAL RELATION ledger (account KEY, amount VARYING)
         AS EVENT WITH STRONGLY BOUNDED 2h 2h",
    )
    .unwrap();

    for e in &w.events {
        clock.set(e.tt);
        let amount = e
            .attrs
            .iter()
            .find(|(n, _)| n.as_str() == "amount")
            .and_then(|(_, v)| v.as_float())
            .unwrap();
        let statement = format!(
            "INSERT INTO ledger OBJECT {} VALID '{}' SET amount = {amount}",
            e.object.raw(),
            e.vt
        );
        match db.execute(&statement) {
            Ok(ExecOutcome::Inserted(_)) => {}
            other => panic!("insert failed: {other:?} for {statement}"),
        }
    }

    // TQL answers must match the direct API on the same workload.
    let api_rel = tempora::load_event_workload(&w).unwrap();
    for idx in [0, 75, 149] {
        let vt = w.events[idx].vt;
        let via_text = db
            .query(&format!("SELECT FROM ledger AT '{vt}'"))
            .unwrap()
            .stats
            .returned;
        let via_api = api_rel.execute(Query::Timeslice { vt }).stats.returned;
        assert_eq!(via_text, via_api, "probe {vt}");
    }
    // And a filtered probe returns a subset.
    let total = db.query("SELECT FROM ledger").unwrap().stats.returned;
    assert_eq!(total, 150);
}

#[test]
fn deletion_retroactive_relation_full_flow() {
    // §3.1: "it is possible for a relation to be deletion retroactive but
    // not insertion retroactive" — future facts may be stored, but may
    // only be removed once they are past.
    let schema = RelationSchema::builder("futures", Stamping::Event)
        .event_spec_for(EventSpec::Retroactive, TtReference::Deletion)
        .build()
        .unwrap();
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let mut rel = TemporalRelation::new(schema, clock.clone());
    clock.set(Timestamp::from_secs(10));
    let id = rel.insert(ObjectId::new(1), Timestamp::from_secs(1_000), vec![]).unwrap();
    // Premature deletion rejected; relation unchanged.
    clock.set(Timestamp::from_secs(500));
    assert!(rel.delete(id).is_err());
    assert!(rel.get(id).unwrap().is_current());
    // Once the fact is past, deletion goes through.
    clock.set(Timestamp::from_secs(1_500));
    rel.delete(id).unwrap();
    assert!(!rel.get(id).unwrap().is_current());
}
