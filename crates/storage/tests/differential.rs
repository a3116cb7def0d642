//! Differential test harness for the sharded ingest pipeline.
//!
//! The optimized write path is validated the way Dignös et al. validate
//! snapshot-semantics rewrites: prove the optimized plan produces states
//! equivalent to the naive one. For random schemas and update batches,
//!
//! * sharded-parallel [`TemporalRelation::apply_batch`] must produce a
//!   final store, rejection set, and counters identical to the sequential
//!   single-threaded path, and
//! * a batch fully accepted under [`Enforcement::Enforce`] replayed under
//!   [`Enforcement::Trust`] must yield a byte-identical store (enforcement
//!   must never alter what it admits).
//!
//! The rejection-atomicity test rides along: one violating element in a
//! batch changes nothing but the rejection counters.

use std::sync::Arc;

use proptest::prelude::*;

use tempora_core::spec::bound::Bound;
use tempora_core::spec::event::EventSpec;
use tempora_core::spec::interevent::OrderingSpec;
use tempora_core::spec::regularity::{EventRegularitySpec, RegularDimension};
use tempora_core::{Basis, Element, ObjectId, RelationSchema, Stamping};
use tempora_storage::{BatchRecord, Enforcement, TemporalRelation};
use tempora_time::{ManualClock, TimeDelta, Timestamp};

fn ts(v: i64) -> Timestamp {
    Timestamp::from_secs(v)
}

/// Random isolated-event specialization with small fixed bounds, so that
/// batches drawn around the clock origin hit both sides of each region.
fn event_spec_strategy() -> impl Strategy<Value = EventSpec> {
    let b = || (1_i64..120).prop_map(Bound::secs);
    prop_oneof![
        Just(EventSpec::General),
        Just(EventSpec::Retroactive),
        b().prop_map(|delay| EventSpec::DelayedRetroactive { delay }),
        Just(EventSpec::Predictive),
        b().prop_map(|lead| EventSpec::EarlyPredictive { lead }),
        b().prop_map(|bound| EventSpec::RetroactivelyBounded { bound }),
        b().prop_map(|bound| EventSpec::StronglyRetroactivelyBounded { bound }),
        (1_i64..60, 60_i64..120).prop_map(|(lo, hi)| {
            EventSpec::DelayedStronglyRetroactivelyBounded {
                min_delay: Bound::secs(lo),
                max_delay: Bound::secs(hi),
            }
        }),
        b().prop_map(|bound| EventSpec::PredictivelyBounded { bound }),
        b().prop_map(|bound| EventSpec::StronglyPredictivelyBounded { bound }),
        (1_i64..60, 60_i64..120).prop_map(|(lo, hi)| {
            EventSpec::EarlyStronglyPredictivelyBounded {
                min_lead: Bound::secs(lo),
                max_lead: Bound::secs(hi),
            }
        }),
        (1_i64..120, 1_i64..120).prop_map(|(past, future)| EventSpec::StronglyBounded {
            past: Bound::secs(past),
            future: Bound::secs(future),
        }),
    ]
}

/// Random schema: an isolated spec, and optionally an inter-element
/// ordering or regularity on a per-object or per-relation basis — the
/// per-relation cases exercise the sequential fallback, the per-object
/// cases the split/absorb machinery.
fn schema_strategy() -> impl Strategy<Value = Arc<RelationSchema>> {
    let basis = || prop_oneof![Just(Basis::PerObject), Just(Basis::PerRelation)];
    let inter = prop_oneof![
        Just(None),
        (
            prop_oneof![
                Just(OrderingSpec::GloballyNonDecreasing),
                Just(OrderingSpec::GloballyNonIncreasing),
            ],
            basis()
        )
            .prop_map(Some),
    ];
    // Union arms are drawn uniformly; repeating `None` keeps regularity a
    // minority so most batches are not rejected wholesale.
    let regular = prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        basis().prop_map(|b| {
            Some((
                EventRegularitySpec::new(RegularDimension::TransactionTime, TimeDelta::from_secs(10)),
                b,
            ))
        }),
    ];
    (event_spec_strategy(), inter, regular).prop_map(|(spec, inter, regular)| {
        let mut builder = RelationSchema::builder("diff", Stamping::Event).event_spec(spec);
        if let Some((ordering, basis)) = inter {
            builder = builder.ordering(ordering, basis);
        }
        if let Some((reg, basis)) = regular {
            builder = builder.event_regularity(reg, basis);
        }
        builder.build().expect("schema combinations are consistent")
    })
}

/// Random update batch: objects from a small pool so per-object checkers
/// accumulate real state, valid times straddling the clock origin so every
/// region boundary is exercised.
fn batch_strategy() -> impl Strategy<Value = Vec<BatchRecord>> {
    prop::collection::vec((0_u64..6, 800_i64..1_300), 0..48).prop_map(|raw| {
        raw.into_iter()
            .map(|(object, vt)| BatchRecord::new(ObjectId::new(object), ts(vt)))
            .collect()
    })
}

const CLOCK_ORIGIN: i64 = 1_000;

fn relation(schema: &Arc<RelationSchema>, shards: usize, mode: Enforcement) -> TemporalRelation {
    let clock = Arc::new(ManualClock::new(ts(CLOCK_ORIGIN)));
    TemporalRelation::new(Arc::clone(schema), clock)
        .with_enforcement(mode)
        .with_ingest_shards(shards)
}

fn store_contents(rel: &TemporalRelation) -> Vec<Element> {
    rel.iter().cloned().collect()
}

proptest! {
    /// The sharded-parallel batch path is observationally identical to the
    /// sequential path: same accepted surrogates, same rejection set (down
    /// to the diagnostics), same final store, same counters.
    #[test]
    fn parallel_batch_matches_sequential(
        schema in schema_strategy(),
        batch in batch_strategy(),
        shards in 2_usize..6,
    ) {
        let mut sequential = relation(&schema, 1, Enforcement::Enforce);
        let mut parallel = relation(&schema, shards, Enforcement::Enforce);

        let partitionable = !schema.orderings().iter().any(|(_, b)| *b == Basis::PerRelation)
            && !schema.event_regularities().iter().any(|(_, b)| *b == Basis::PerRelation)
            && schema.determined().is_none();
        let expect_parallel = partitionable && batch.len() > shards;

        let seq_report = sequential.apply_batch(batch.clone());
        let par_report = parallel.apply_batch(batch);

        prop_assert!(!seq_report.parallel);
        prop_assert_eq!(par_report.parallel, expect_parallel);
        prop_assert_eq!(&seq_report.accepted, &par_report.accepted);
        prop_assert_eq!(
            format!("{:?}", seq_report.rejected),
            format!("{:?}", par_report.rejected)
        );
        prop_assert_eq!(store_contents(&sequential), store_contents(&parallel));

        let (s, p) = (sequential.stats(), parallel.stats());
        prop_assert_eq!(s.inserts, p.inserts);
        prop_assert_eq!(s.rejections, p.rejections);
        prop_assert_eq!(s.shard_rejections.iter().sum::<u64>(), s.rejections);
        prop_assert_eq!(p.shard_rejections.iter().sum::<u64>(), p.rejections);
    }

    /// A batch fully accepted under Enforce, replayed under Trust with an
    /// identically driven clock, yields a byte-identical store: enforcement
    /// only filters, it never rewrites what it admits.
    #[test]
    fn enforce_accepted_replays_identically_under_trust(
        schema in schema_strategy(),
        batch in batch_strategy(),
        shards in 2_usize..6,
    ) {
        // Reduce the random batch to an Enforce-accepted batch: drop the
        // rejected records and retry (dropping a record shifts later
        // transaction stamps, which can flip later decisions, so iterate
        // to the fixpoint — each round strictly shrinks the batch).
        let mut accepted_batch = batch;
        let enforced = loop {
            let mut rel = relation(&schema, shards, Enforcement::Enforce);
            let report = rel.apply_batch(accepted_batch.clone());
            if report.all_accepted() {
                break rel;
            }
            let dropped: std::collections::BTreeSet<usize> =
                report.rejected.iter().map(|(idx, _)| *idx).collect();
            accepted_batch = accepted_batch
                .into_iter()
                .enumerate()
                .filter(|(idx, _)| !dropped.contains(idx))
                .map(|(_, r)| r)
                .collect();
        };

        let mut trusting = relation(&schema, shards, Enforcement::Trust);
        let report = trusting.apply_batch(accepted_batch);
        prop_assert!(report.all_accepted());
        prop_assert!(!report.parallel, "Trust has no checks to parallelize");
        prop_assert_eq!(store_contents(&enforced), store_contents(&trusting));
    }
}

/// Satellite: rejection atomicity. A batch containing one violating element
/// leaves relation state and stats untouched except `rejections`
/// (and its per-shard attribution).
#[test]
fn rejected_element_changes_nothing_but_rejection_counters() {
    let schema = RelationSchema::builder("atomic", Stamping::Event)
        .event_spec(EventSpec::Retroactive)
        .ordering(OrderingSpec::GloballyNonDecreasing, Basis::PerObject)
        .build()
        .unwrap();
    for shards in [1, 4] {
        let mut rel = relation(&schema, shards, Enforcement::Enforce);
        let good = |object: u64, vt: i64| BatchRecord::new(ObjectId::new(object), ts(vt));
        rel.apply_batch(vec![good(1, 500), good(2, 600), good(1, 700)]);

        let before_state = store_contents(&rel);
        let before_stats = rel.stats();

        // vt 400 regresses object 1's non-decreasing order and is also
        // predictive of nothing — only the ordering violates; either way
        // the batch element must vanish without a trace.
        let report = rel.apply_batch(vec![good(1, 400)]);
        assert_eq!(report.accepted, vec![]);
        assert_eq!(report.rejected.len(), 1);

        let after_stats = rel.stats();
        assert_eq!(store_contents(&rel), before_state, "store unchanged");
        assert_eq!(after_stats.inserts, before_stats.inserts);
        assert_eq!(after_stats.deletes, before_stats.deletes);
        assert_eq!(after_stats.modifications, before_stats.modifications);
        assert_eq!(after_stats.rejections, before_stats.rejections + 1);
        assert_eq!(
            after_stats.shard_rejections.iter().sum::<u64>(),
            after_stats.rejections
        );

        // The relation still accepts conforming elements afterwards.
        let report = rel.apply_batch(vec![good(1, 750)]);
        assert!(report.all_accepted());
    }
}
