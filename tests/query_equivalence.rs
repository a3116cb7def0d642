//! Property-based cross-crate test: for random workloads and random
//! probes, every physical strategy the optimizer can choose returns
//! exactly the full-scan answer. This is the executor's core soundness
//! property — specialization-aware plans are optimizations, never
//! approximations.

use proptest::prelude::*;

use std::sync::Arc;

use tempora::prelude::*;

fn sorted_ids(elements: &[Element]) -> Vec<ElementId> {
    let mut v: Vec<ElementId> = elements.iter().map(|e| e.id).collect();
    v.sort();
    v
}

/// A randomly parameterized bounded event relation.
fn bounded_relation(
    offsets: &[i64],
    past_bound: i64,
    future_bound: i64,
) -> Option<IndexedRelation> {
    let schema = RelationSchema::builder("r", Stamping::Event)
        .event_spec(EventSpec::StronglyBounded {
            past: Bound::secs(past_bound),
            future: Bound::secs(future_bound),
        })
        .build()
        .ok()?;
    let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
    let mut rel = IndexedRelation::new(schema, clock.clone());
    for (i, &off) in offsets.iter().enumerate() {
        let tt = Timestamp::from_secs(i64::try_from(i).ok()? * 100 + 100);
        clock.set(tt);
        let vt = tt + TimeDelta::from_secs(off);
        rel.insert(ObjectId::new(u64::try_from(i % 7).ok()?), vt, vec![])
            .ok()?;
    }
    Some(rel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_plans_agree_with_full_scan(
        offsets in prop::collection::vec(-50_i64..=80, 1..120),
        probe in 0_i64..14_000,
    ) {
        let rel = bounded_relation(&offsets, 50, 80).expect("offsets conform by construction");
        let q = Query::Timeslice { vt: Timestamp::from_secs(probe) };
        let fast = rel.execute(q);
        let slow = rel.execute_plan(q, Plan::FullScan);
        prop_assert_eq!(sorted_ids(&fast.elements), sorted_ids(&slow.elements));
        // The fast plan is genuinely a tt-window scan on this schema.
        prop_assert_eq!(fast.stats.strategy, "tt-window-scan");
    }

    #[test]
    fn range_plans_agree_with_full_scan(
        offsets in prop::collection::vec(-50_i64..=80, 1..100),
        from in 0_i64..12_000,
        width in 1_i64..3_000,
    ) {
        let rel = bounded_relation(&offsets, 50, 80).expect("conforms");
        let q = Query::TimesliceRange {
            from: Timestamp::from_secs(from),
            to: Timestamp::from_secs(from + width),
        };
        let fast = rel.execute(q);
        let slow = rel.execute_plan(q, Plan::FullScan);
        prop_assert_eq!(sorted_ids(&fast.elements), sorted_ids(&slow.elements));
    }

    #[test]
    fn point_index_agrees_with_full_scan(
        vts in prop::collection::vec(-5_000_i64..5_000, 1..120),
        probe in -5_000_i64..5_000,
    ) {
        // General relation: maintained point index.
        let schema = RelationSchema::builder("g", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for (i, &vt) in vts.iter().enumerate() {
            clock.set(Timestamp::from_secs(i64::try_from(i).unwrap() + 1));
            rel.insert(ObjectId::new(1), Timestamp::from_secs(vt), vec![]).unwrap();
        }
        let q = Query::Timeslice { vt: Timestamp::from_secs(probe) };
        let fast = rel.execute(q);
        prop_assert_eq!(fast.stats.strategy, "point-probe");
        let slow = rel.execute_plan(q, Plan::FullScan);
        prop_assert_eq!(sorted_ids(&fast.elements), sorted_ids(&slow.elements));
    }

    #[test]
    fn interval_tree_agrees_with_full_scan(
        spans in prop::collection::vec((-2_000_i64..2_000, 1_i64..500), 1..80),
        probe in -2_500_i64..2_500,
        deletions in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        let schema = RelationSchema::builder("iv", Stamping::Interval).build().unwrap();
        let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        let mut ids = Vec::new();
        for (i, &(b, len)) in spans.iter().enumerate() {
            clock.set(Timestamp::from_secs(i64::try_from(i).unwrap() + 1));
            let valid = Interval::new(
                Timestamp::from_secs(b),
                Timestamp::from_secs(b + len),
            ).unwrap();
            ids.push(rel.insert(ObjectId::new(1), valid, vec![]).unwrap());
        }
        // Random logical deletions must also leave the index consistent.
        for idx in &deletions {
            let id = *idx.get(&ids);
            clock.advance(TimeDelta::from_secs(1));
            let _ = rel.delete(id); // double deletes are fine to ignore
        }
        let q = Query::Timeslice { vt: Timestamp::from_secs(probe) };
        let fast = rel.execute(q);
        prop_assert_eq!(fast.stats.strategy, "interval-probe");
        let slow = rel.execute_plan(q, Plan::FullScan);
        prop_assert_eq!(sorted_ids(&fast.elements), sorted_ids(&slow.elements));
    }

    #[test]
    fn rollback_is_consistent_with_incremental_history(
        n in 1_usize..60,
        probe_at in any::<prop::sample::Index>(),
    ) {
        // Build a history while recording the current-state size after
        // every commit; rolling back must reproduce those sizes.
        let schema = RelationSchema::builder("h", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        let mut checkpoints: Vec<(Timestamp, usize)> = Vec::new();
        let mut live: Vec<ElementId> = Vec::new();
        for i in 0..n {
            clock.set(Timestamp::from_secs(i64::try_from(i).unwrap() * 10 + 10));
            if i % 4 == 3 && !live.is_empty() {
                let victim = live.remove(i % live.len());
                rel.delete(victim).unwrap();
            } else {
                live.push(
                    rel.insert(ObjectId::new(1), Timestamp::from_secs(0), vec![]).unwrap(),
                );
            }
            checkpoints.push((clock.now(), live.len()));
        }
        let (tt, expect) = *probe_at.get(&checkpoints);
        let result = rel.execute(Query::Rollback { tt });
        prop_assert_eq!(result.stats.returned, expect);
    }
}

// ---------------------------------------------------------------------
// Index-carrying snapshots: pinned probes through the sealed-chunk index
// segments against the full-scan oracle at the pin.

use tempora::query::SnapshotRelation;
use tempora::storage::vacuum::VacuumPolicy;
use tempora::storage::CHUNK_CAP;

/// A tiny deterministic generator (SplitMix64), so a failing history
/// reproduces from its one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn secs(&mut self, n: u64) -> i64 {
        i64::try_from(self.below(n)).expect("small")
    }
}

/// The transaction ticks a history was written at, by kind.
#[derive(Default)]
struct Ticks {
    all: Vec<Timestamp>,
    deletes: Vec<Timestamp>,
}

/// A general (unordered, unbounded) relation, so the planner picks the
/// point index or the interval tree: at least `sealed` full chunks plus
/// `tail` elements, built from inserts, deletes and modifications at one
/// tick per second.
fn seeded_history(
    stamping: Stamping,
    seed: u64,
    sealed: usize,
    tail: usize,
) -> (IndexedRelation, Ticks) {
    let schema = RelationSchema::builder("h", stamping)
        .build()
        .expect("general schema");
    let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
    let mut rel = IndexedRelation::new(schema, clock.clone());
    let mut g = Gen(seed);
    let mut live: Vec<ElementId> = Vec::new();
    let mut ticks = Ticks::default();
    let valid = |g: &mut Gen| -> ValidTime {
        let b = g.secs(3_000);
        match stamping {
            Stamping::Event => Timestamp::from_secs(b).into(),
            Stamping::Interval => Interval::new(
                Timestamp::from_secs(b),
                Timestamp::from_secs(b + 1 + g.secs(120)),
            )
            .expect("non-empty")
            .into(),
        }
    };
    let target = sealed * CHUNK_CAP + tail;
    let mut second = 0_i64;
    while rel.relation().len() < target {
        second += 1;
        clock.set(Timestamp::from_secs(second));
        let roll = g.below(100);
        if roll < 8 && !live.is_empty() {
            let victim =
                live.swap_remove(usize::try_from(g.below(live.len() as u64)).expect("index"));
            let tt = rel.delete(victim).expect("live element");
            ticks.deletes.push(tt);
            ticks.all.push(tt);
        } else if roll < 14 && !live.is_empty() {
            let at = usize::try_from(g.below(live.len() as u64)).expect("index");
            let v = valid(&mut g);
            live[at] = rel
                .modify(live[at], v, vec![])
                .expect("general schema admits");
            ticks.all.push(clock.last_tick());
        } else {
            let object = ObjectId::new(g.below(40));
            let v = valid(&mut g);
            live.push(
                rel.insert(object, v, vec![])
                    .expect("general schema admits"),
            );
            ticks.all.push(clock.last_tick());
        }
    }
    (rel, ticks)
}

/// Pins to probe at: the last tick, ticks inside the open tail, ticks
/// just before a delete, and random ones.
fn probe_pins(rel: &IndexedRelation, ticks: &Ticks, g: &mut Gen) -> Vec<Timestamp> {
    let mut pins = vec![*ticks.all.last().expect("non-empty history")];
    let len = rel.relation().len();
    let tail_start = len - len % CHUNK_CAP;
    let tail_tick = |pos: usize| rel.relation().iter().nth(pos).map(|e| e.tt_begin);
    pins.extend(tail_tick(tail_start));
    pins.extend(tail_tick(tail_start + (len - tail_start) / 2));
    for _ in 0..2 {
        let d = ticks.deletes[usize::try_from(g.below(ticks.deletes.len() as u64)).expect("index")];
        pins.push(d - TimeDelta::RESOLUTION);
        pins.push(d);
    }
    for _ in 0..3 {
        pins.push(ticks.all[usize::try_from(g.below(ticks.all.len() as u64)).expect("index")]);
    }
    pins
}

/// The full-scan oracle: the pinned image, filtered.
fn oracle(snap: &SnapshotRelation, keep: impl Fn(&Element) -> bool) -> Vec<Element> {
    snap.iter_pinned().filter(|e| keep(e)).collect()
}

/// Runs the event, interval and object probes at `pin`: every answer must
/// equal the oracle's element for element (same order: position order),
/// and every probe examines exactly the pinned elements its key selects.
fn check_pinned_probes(
    rel: &IndexedRelation,
    pin: Timestamp,
    g: &mut Gen,
) -> Result<(), TestCaseError> {
    let schema = Arc::clone(rel.relation().schema());
    let stamping = schema.stamping();
    let snap = SnapshotRelation::new(schema, rel.relation().snapshot_elements(), pin);
    let probe_strategy = match stamping {
        Stamping::Event => "point-probe",
        Stamping::Interval => "interval-probe",
    };
    for _ in 0..4 {
        // An instant some element holds, or a random one.
        let vt = if g.below(2) == 0 {
            Timestamp::from_secs(g.secs(3_100) - 50)
        } else {
            let pinned: Vec<Element> = snap.iter_pinned().collect();
            pinned[usize::try_from(g.below(pinned.len().max(1) as u64)).expect("index")]
                .valid
                .begin()
        };
        let to = vt + TimeDelta::from_secs(1 + g.secs(200));
        for (q, keyed) in [
            (
                Query::Timeslice { vt },
                Box::new(move |e: &Element| e.valid.covers(vt)) as Box<dyn Fn(&Element) -> bool>,
            ),
            (
                Query::TimesliceRange { from: vt, to },
                Box::new(move |e: &Element| {
                    e.valid.begin() < to && (e.valid.end() > vt || e.valid.begin() >= vt)
                }),
            ),
        ] {
            let got = snap.execute(q);
            prop_assert_eq!(got.stats.strategy, probe_strategy);
            let expected = oracle(&snap, |e| e.existed_at(pin) && keyed(e));
            prop_assert_eq!(&got.elements, &expected, "{} at pin {}", q, pin);
            prop_assert_eq!(
                got.stats.examined,
                oracle(&snap, |e| keyed(e)).len(),
                "{} examined",
                q
            );
        }
        let object = ObjectId::new(g.below(42));
        let got = snap.execute(Query::ObjectHistory { object });
        prop_assert_eq!(got.stats.strategy, "object-scan");
        let expected = oracle(&snap, |e| e.object == object);
        prop_assert_eq!(got.stats.examined, expected.len());
        prop_assert_eq!(
            &got.elements,
            &expected,
            "history of {} at pin {}",
            object,
            pin
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pinned_probes_over_sealed_chunks_equal_the_full_scan_at_the_pin(
        seed in any::<u64>(),
        interval in any::<bool>(),
        sealed in 3_usize..5,
        tail in 1_usize..CHUNK_CAP,
    ) {
        let stamping = if interval { Stamping::Interval } else { Stamping::Event };
        let (rel, ticks) = seeded_history(stamping, seed, sealed, tail);
        prop_assert!(!ticks.deletes.is_empty());
        let mut g = Gen(seed ^ 0x5EED);
        for pin in probe_pins(&rel, &ticks, &mut g) {
            check_pinned_probes(&rel, pin, &mut g)?;
        }
        // The live executor agrees with the snapshot at the last tick.
        let last = *ticks.all.last().expect("non-empty");
        let snap = SnapshotRelation::new(
            Arc::clone(rel.relation().schema()),
            rel.relation().snapshot_elements(),
            last,
        );
        for vt in [0_i64, 777, 1_500, 2_999] {
            let q = Query::Timeslice { vt: Timestamp::from_secs(vt) };
            prop_assert_eq!(sorted_ids(&snap.execute(q).elements), sorted_ids(&rel.execute(q).elements));
        }
    }

    #[test]
    fn vacuumed_relations_rebuild_their_index_segments(
        seed in any::<u64>(),
        interval in any::<bool>(),
    ) {
        let stamping = if interval { Stamping::Interval } else { Stamping::Event };
        let (mut rel, ticks) = seeded_history(stamping, seed, 3, 300);
        let last = *ticks.all.last().expect("non-empty");
        let before = rel.relation().len();
        // Keep only the history of the last 2000 s of transaction time.
        let reclaimed = rel.vacuum(
            VacuumPolicy::RollbackWindow { window: TimeDelta::from_secs(2_000) },
            last,
        );
        prop_assert!(reclaimed > 0);
        prop_assert_eq!(rel.relation().len(), before - reclaimed);
        let mut g = Gen(seed ^ 0xFACE);
        // Pins inside the retained window (and the last tick) keep exact
        // answers over the rebuilt segments.
        for pin in [last, last - TimeDelta::from_secs(1_000), last - TimeDelta::from_secs(1)] {
            check_pinned_probes(&rel, pin, &mut g)?;
        }
    }
}

/// The served stats line on 10k rows: one probe, one element examined.
/// Examined counts are host-independent, so this gates the index path
/// where a wall-clock figure could not.
#[test]
fn served_point_probe_on_10k_rows_examines_one_element() {
    use tempora::serve::handle_request;
    use tempora::wal::{DurabilityConfig, DurableDatabase, MemStorage};

    let origin = Timestamp::from_secs(1_000_000);
    let (db, _) = DurableDatabase::open(
        Arc::new(MemStorage::new()),
        Arc::new(ManualClock::new(origin)),
        DurabilityConfig::default(),
    )
    .expect("open");
    db.execute_ddl(
        "CREATE TEMPORAL RELATION plant (sensor KEY, reading VARYING) AS EVENT WITH RETROACTIVE",
    )
    .expect("ddl");
    let records: Vec<BatchRecord> = (0..10_000_i64)
        .map(|i| {
            BatchRecord::new(
                ObjectId::new(u64::try_from(i % 64).expect("small")),
                origin - TimeDelta::from_secs(i + 1),
            )
        })
        .collect();
    assert!(db
        .apply_batch("plant", records)
        .expect("batch")
        .all_accepted());
    for probe in [1_i64, 5_000, 10_000] {
        let tql = format!(
            "SELECT FROM plant AT {}",
            origin - TimeDelta::from_secs(probe)
        );
        let response = handle_request(&db, &tql);
        let stats = response.lines().nth(1).expect("stats line");
        assert_eq!(stats, "point-probe: examined 1 returned 1", "{tql}");
    }
}
