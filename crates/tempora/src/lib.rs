//! # tempora — temporal specialization for bitemporal relations
//!
//! A Rust implementation of *C. S. Jensen & R. T. Snodgrass, "Temporal
//! Specialization", ICDE 1992*: the full taxonomy of specialized temporal
//! relations, a bitemporal storage/index/query stack that exploits the
//! declared specializations, and a design toolkit.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use tempora::prelude::*;
//!
//! // Declare a monitoring relation: readings arrive 30 s – 5 min after
//! // they are measured (§3.1's delayed retroactive example).
//! let schema = RelationSchema::builder("plant", Stamping::Event)
//!     .key_attr("sensor")
//!     .attr("temperature", true)
//!     .event_spec(EventSpec::DelayedRetroactive { delay: Bound::secs(30) })
//!     .build()
//!     .expect("consistent schema");
//!
//! let clock = Arc::new(ManualClock::new("1992-02-12T09:00:00".parse().unwrap()));
//! let mut relation = IndexedRelation::new(schema, clock.clone());
//!
//! // A reading measured at 08:58:00, stored now (09:00:00): fine.
//! relation
//!     .insert(ObjectId::new(1), "1992-02-12T08:58:00".parse::<Timestamp>().unwrap(), vec![])
//!     .expect("30 s delay satisfied");
//!
//! // A reading claiming to be measured *now*: violates the declared delay.
//! clock.advance(TimeDelta::from_secs(60));
//! let now = clock.now();
//! assert!(relation.insert(ObjectId::new(1), now, vec![]).is_err());
//! ```
//!
//! ## Crate map
//!
//! * [`time`] — timestamps, calendric durations, Allen's
//!   interval algebra, transaction clocks;
//! * [`core`] — the taxonomy: specializations, region
//!   algebra, lattices (Figures 2–5), constraint engine, inference;
//! * [`storage`] — the element store, the
//!   [`TemporalRelation`](tempora_storage::TemporalRelation) façade, vacuuming;
//! * [`index`] — point index, interval tree, tt-proxy;
//! * [`analyze`] — design-time static analysis: schema
//!   satisfiability, redundancy, and predicate proofs (TS0xx diagnostics);
//! * [`query`] — plans, the specialization-driven
//!   optimizer, [`IndexedRelation`];
//! * [`design`] — DDL, catalog, design advisor, reports;
//! * [`wal`] — durability: write-ahead log, checkpoints,
//!   crash recovery, fault injection (see `docs/durability.md`);
//! * [`workload`] — generators for every scenario the
//!   paper names;
//! * [`obs`] — the process-wide metrics registry and span
//!   recorder every layer reports into (see `docs/observability.md`);
//! * [`serve`] — the multi-client network layer: a length-prefixed
//!   wire protocol serving snapshot-pinned queries and durable writes
//!   over TCP (see `docs/serving.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tempora_analyze as analyze;
pub use tempora_core as core;
pub use tempora_design as design;
pub use tempora_index as index;
pub use tempora_obs as obs;
pub use tempora_query as query;
pub use tempora_storage as storage;
pub use tempora_time as time;
pub use tempora_wal as wal;
pub use tempora_workload as workload;

pub mod serve;

use std::sync::Arc;

use tempora_core::{CoreError, ElementId};
use tempora_query::IndexedRelation;
use tempora_storage::BatchReport;
use tempora_time::{ManualClock, ReplayClock};
use tempora_workload::{EventWorkload, GenEvent, GenInterval, IntervalWorkload};

/// The commonly needed types in one import.
pub mod prelude {
    pub use tempora_core::spec::bound::Bound;
    pub use tempora_core::spec::determined::DeterminedSpec;
    pub use tempora_core::spec::event::{EventSpec, EventSpecKind};
    pub use tempora_core::spec::interevent::{EventStamp, OrderingSpec};
    pub use tempora_core::spec::interinterval::{IntervalStamp, SuccessionSpec};
    pub use tempora_core::spec::interval::{Endpoint, IntervalEndpointSpec, IntervalRegularitySpec};
    pub use tempora_core::spec::regularity::{EventRegularitySpec, RegularDimension};
    pub use tempora_core::{
        AttrName, Basis, CoreError, Element, ElementId, ObjectId, RelationSchema, Stamping,
        TtReference, Value, ValidTime,
    };
    pub use tempora_index::IndexChoice;
    pub use tempora_obs::{MetricsSnapshot, Profile};
    pub use tempora_query::timeline::Timeline;
    pub use tempora_query::{parse_tql, IndexedRelation, Plan, Query, TqlStatement};
    pub use tempora_storage::{BatchRecord, BatchReport, Enforcement, TemporalRelation};
    pub use tempora_time::{
        AllenRelation, CalendricDuration, Granularity, Interval, ManualClock, MonotoneClock,
        ReplayClock, SystemClock, TimeDelta, Timestamp, TransactionClock,
    };
}

/// Builds an [`IndexedRelation`] from an event workload and loads every
/// generated event, driving the manual clock to the generator's intended
/// transaction times. Returns the loaded relation.
///
/// # Errors
///
/// Returns the first constraint violation — generated workloads conform to
/// their own schemas, so an error indicates a bug worth surfacing loudly.
pub fn load_event_workload(workload: &EventWorkload) -> Result<IndexedRelation, CoreError> {
    let clock = Arc::new(ManualClock::new(
        workload
            .events
            .first()
            .map_or(tempora_time::Timestamp::EPOCH, |e| e.tt),
    ));
    let mut relation = IndexedRelation::new(Arc::clone(&workload.schema), clock.clone());
    let mut ids = Vec::with_capacity(workload.events.len());
    load_events_into(&mut relation, &clock, &workload.events, &mut ids)?;
    Ok(relation)
}

/// Loads events into an existing relation (appending to whatever is
/// there); pushes the new element ids onto `ids`.
///
/// # Errors
///
/// Propagates constraint violations.
pub fn load_events_into(
    relation: &mut IndexedRelation,
    clock: &ManualClock,
    events: &[GenEvent],
    ids: &mut Vec<ElementId>,
) -> Result<(), CoreError> {
    for event in events {
        // Drive the clock so tick() returns the generator's intended stamp
        // (generators emit strictly increasing transaction times).
        clock.set(event.tt);
        let id = relation.insert(event.object, event.vt, event.attrs.clone())?;
        ids.push(id);
    }
    Ok(())
}

/// Builds an [`IndexedRelation`] and loads an event workload as one batch
/// through the sharded ingest pipeline
/// ([`TemporalRelation::apply_batch`](tempora_storage::TemporalRelation::apply_batch)):
/// per-partition constraint checks run on `shards` threads when the
/// schema's declarations permit, and a [`ReplayClock`] reproduces the
/// generator's transaction stamps, so the loaded relation is identical to
/// [`load_event_workload`]'s.
///
/// # Errors
///
/// Returns the first constraint violation — generated workloads conform to
/// their own schemas, so any rejection indicates a bug worth surfacing.
pub fn load_event_workload_batched(
    workload: &EventWorkload,
    shards: usize,
) -> Result<IndexedRelation, CoreError> {
    let (records, stamps) = workload.batch();
    let clock = Arc::new(ReplayClock::new(stamps));
    let mut relation = IndexedRelation::new(Arc::clone(&workload.schema), clock)
        .with_ingest_shards(shards);
    let report: BatchReport = relation.apply_batch(records);
    match report.rejected.into_iter().next() {
        None => Ok(relation),
        Some((_, err)) => Err(err),
    }
}

/// [`load_event_workload_batched`] plus a per-phase [`obs::Profile`]:
/// wall-clock timings for batch construction and application, with the
/// ingest stage breakdown (stamp / check / apply) attributed from the
/// metrics recorded during this batch (snapshot deltas, so concurrent
/// batches on other relations would blur the attribution).
///
/// On the sequential path (1 shard, or a non-partitionable schema)
/// admission is interleaved with application, so the check row reads 0
/// and its time is carried by the apply row — see `docs/observability.md`.
///
/// # Errors
///
/// Returns the first constraint violation, as [`load_event_workload_batched`].
pub fn load_event_workload_batched_profiled(
    workload: &EventWorkload,
    shards: usize,
) -> Result<(IndexedRelation, tempora_obs::Profile), CoreError> {
    let elapsed_us = |from: std::time::Instant| {
        u64::try_from(from.elapsed().as_micros()).unwrap_or(u64::MAX)
    };
    let total_from = std::time::Instant::now();
    let before = tempora_obs::snapshot();

    let build_from = std::time::Instant::now();
    let (records, stamps) = workload.batch();
    let build_us = elapsed_us(build_from);
    let record_count = records.len();

    let clock = Arc::new(ReplayClock::new(stamps));
    let mut relation =
        IndexedRelation::new(Arc::clone(&workload.schema), clock).with_ingest_shards(shards);
    let apply_from = std::time::Instant::now();
    let report: BatchReport = relation.apply_batch(records);
    let apply_us = elapsed_us(apply_from);

    let after = tempora_obs::snapshot();
    let stage_us = |stage: &str| -> u64 {
        let sum = |snap: &tempora_obs::MetricsSnapshot| {
            snap.histogram_labelled("tempora_ingest_stage_seconds", stage)
                .map_or(0, |h| h.sum_us)
        };
        sum(&after).saturating_sub(sum(&before))
    };

    let mut profile = tempora_obs::Profile::new();
    profile.push("build-batch", build_us, format!("{record_count} records"));
    profile.push(
        "apply-batch",
        apply_us,
        format!(
            "{} shard(s), {}",
            report.shards_used,
            if report.parallel { "parallel" } else { "sequential" }
        ),
    );
    profile.push("  stamp", stage_us("stamp"), "transaction clock ticks");
    profile.push(
        "  check",
        stage_us("check"),
        if report.parallel {
            "shard-parallel constraint admission"
        } else {
            "0 on the sequential path (interleaved into apply)"
        },
    );
    profile.push("  apply", stage_us("apply"), "store + counters");
    profile.set_total(elapsed_us(total_from));

    match report.rejected.into_iter().next() {
        None => Ok((relation, profile)),
        Some((_, err)) => Err(err),
    }
}

/// Loads an event workload into a [`wal::DurableDatabase`] stored in
/// `storage`: the schema is created via its rendered DDL and every event is
/// inserted durably, with the manual clock driven to the generator's
/// transaction stamps — so reopening `storage` later recovers a relation
/// identical to what [`load_event_workload`] builds in memory.
///
/// The workload's schema must survive the DDL round trip
/// ([`design::render_ddl`] → [`design::parse_ddl`]), which holds for every
/// generator in [`workload`]; a hand-built schema using programmatic-only
/// features would be rejected here rather than silently altered.
///
/// # Errors
///
/// Returns DDL/constraint rejections ([`wal::WalError::Db`]) and
/// durability failures ([`wal::WalError::Io`], [`wal::WalError::Degraded`]).
pub fn load_event_workload_durable(
    workload: &EventWorkload,
    storage: Arc<dyn wal::Storage>,
    config: wal::DurabilityConfig,
) -> Result<wal::DurableDatabase, wal::WalError> {
    let clock = Arc::new(ManualClock::new(
        workload
            .events
            .first()
            .map_or(tempora_time::Timestamp::EPOCH, |e| e.tt),
    ));
    let (db, _report) = wal::DurableDatabase::open(storage, clock.clone(), config)?;
    let ddl = tempora_design::render_ddl(&workload.schema);
    db.execute_ddl(&ddl)?;
    let relation = workload.schema.name().to_string();
    for event in &workload.events {
        // As in `load_events_into`: the clock is set so the next tick
        // stamps the generator's intended transaction time.
        clock.set(event.tt);
        db.insert(&relation, event.object, event.vt, event.attrs.clone())?;
    }
    Ok(db)
}

/// Builds and loads an interval workload (see [`load_event_workload`]).
///
/// # Errors
///
/// Returns the first constraint violation.
pub fn load_interval_workload(workload: &IntervalWorkload) -> Result<IndexedRelation, CoreError> {
    let clock = Arc::new(ManualClock::new(
        workload
            .intervals
            .first()
            .map_or(tempora_time::Timestamp::EPOCH, |e| e.tt),
    ));
    let mut relation = IndexedRelation::new(Arc::clone(&workload.schema), clock.clone());
    let mut ids = Vec::with_capacity(workload.intervals.len());
    load_intervals_into(&mut relation, &clock, &workload.intervals, &mut ids)?;
    Ok(relation)
}

/// Loads intervals into an existing relation; pushes the new element ids
/// onto `ids` in generation order.
///
/// # Errors
///
/// Propagates constraint violations.
pub fn load_intervals_into(
    relation: &mut IndexedRelation,
    clock: &ManualClock,
    intervals: &[GenInterval],
    ids: &mut Vec<ElementId>,
) -> Result<(), CoreError> {
    for item in intervals {
        clock.set(item.tt);
        ids.push(relation.insert(item.object, item.valid, item.attrs.clone())?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn load_monitoring_workload_end_to_end() {
        let w = tempora_workload::monitoring(
            4,
            25,
            TimeDelta::from_secs(60),
            TimeDelta::from_secs(30),
            TimeDelta::from_secs(90),
            1,
        );
        let relation = load_event_workload(&w).expect("workload conforms to its schema");
        assert_eq!(relation.relation().len(), 100);
        assert_eq!(relation.relation().stats().rejections, 0);
        // Probe a known reading through the planner.
        let probe = w.events[40].vt;
        let result = relation.execute(Query::Timeslice { vt: probe });
        assert!(result.stats.returned >= 1);
    }

    #[test]
    fn batched_load_equals_sequential_load() {
        let w = tempora_workload::monitoring(
            8,
            50,
            TimeDelta::from_secs(60),
            TimeDelta::from_secs(30),
            TimeDelta::from_secs(90),
            7,
        );
        let sequential = load_event_workload(&w).expect("workload conforms");
        let batched = load_event_workload_batched(&w, 4).expect("workload conforms");
        assert_eq!(batched.relation().len(), sequential.relation().len());
        let a: Vec<Element> = sequential.relation().iter().cloned().collect();
        let b: Vec<Element> = batched.relation().iter().cloned().collect();
        assert_eq!(a, b, "batched load must reproduce the sequential store");
        // The maintained index answers probes identically.
        let probe = w.events[123].vt;
        let seq = sequential.execute(Query::Timeslice { vt: probe });
        let bat = batched.execute(Query::Timeslice { vt: probe });
        assert_eq!(seq.stats.returned, bat.stats.returned);
    }

    #[test]
    fn profiled_batched_load_reports_phases() {
        let w = tempora_workload::monitoring(
            8,
            50,
            TimeDelta::from_secs(60),
            TimeDelta::from_secs(30),
            TimeDelta::from_secs(90),
            11,
        );
        let (relation, profile) =
            load_event_workload_batched_profiled(&w, 4).expect("workload conforms");
        assert_eq!(relation.relation().len(), 400);
        let phases: Vec<&str> = profile.rows.iter().map(|r| r.phase.as_str()).collect();
        assert!(phases.contains(&"build-batch"));
        assert!(phases.contains(&"apply-batch"));
        let rendered = profile.to_string();
        assert!(rendered.lines().last().unwrap().contains("total"));
    }

    /// Regenerates the replay profile table shown in
    /// `docs/observability.md` and `EXPERIMENTS.md`:
    /// `cargo test -p tempora --release profile_table -- --ignored --nocapture`
    #[test]
    #[ignore = "documentation artifact, run explicitly"]
    fn profile_table_for_docs() {
        let w = tempora_workload::monitoring(
            64,
            500,
            TimeDelta::from_secs(60),
            TimeDelta::from_secs(30),
            TimeDelta::from_secs(90),
            11,
        );
        let (_, profile) =
            load_event_workload_batched_profiled(&w, 4).expect("workload conforms");
        println!("{profile}");
    }

    #[test]
    fn load_interval_workload_end_to_end() {
        let w = tempora_workload::assignments(3, 6, 2);
        let relation = load_interval_workload(&w).expect("workload conforms");
        assert_eq!(relation.relation().len(), 18);
        // Every employee has exactly one assignment covering week 3's
        // midpoint.
        let probe = tempora_workload::workload_epoch() + TimeDelta::from_days(7 * 3 + 3);
        let result = relation.execute(Query::Timeslice { vt: probe });
        assert_eq!(result.stats.returned, 3);
    }

    #[test]
    fn loader_surfaces_violations() {
        // Hand-build a workload whose data contradicts its schema.
        let schema = RelationSchema::builder("bad", Stamping::Event)
            .event_spec(EventSpec::Retroactive)
            .build()
            .unwrap();
        let w = EventWorkload {
            schema,
            events: vec![tempora_workload::GenEvent {
                object: ObjectId::new(1),
                vt: Timestamp::from_secs(1_000),
                tt: Timestamp::from_secs(10),
                attrs: vec![],
            }],
        };
        assert!(load_event_workload(&w).is_err());
    }
}
