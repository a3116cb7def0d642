//! Batched, sharded ingest.
//!
//! The paper's inter-element specializations are declared *per partition* —
//! "notably per surrogate" (§3.2) — so constraint enforcement for a
//! partitioned relation decomposes into independent per-object checks. This
//! module exploits that: an update batch is hash-partitioned by [`ObjectId`]
//! into N shards, each shard's elements are checked in parallel against a
//! split-off slice of the constraint engine's per-object state, and the
//! results are merged back in batch order so surrogate assignment and
//! storage behave exactly as the sequential path.
//!
//! Schemas that declare relation-global state (a [`Basis::PerRelation`]
//! ordering, regularity, or succession) or a determined mapping are not
//! partitionable; [`TemporalRelation::apply_batch`] detects this from the
//! schema and routes the whole batch through the sequential stage instead.
//! See `DESIGN.md` for the full routing rules.
//!
//! ```
//! use std::sync::Arc;
//! use tempora_core::spec::event::EventSpec;
//! use tempora_core::{ObjectId, RelationSchema, Stamping};
//! use tempora_storage::{BatchRecord, TemporalRelation};
//! use tempora_time::{ManualClock, Timestamp};
//!
//! // A retroactive relation sharded four ways: records only ever arrive
//! // after their valid time, and no relation-global constraint blocks
//! // partitioning, so the check stage may run shard-parallel.
//! let schema = RelationSchema::builder("plant", Stamping::Event)
//!     .event_spec(EventSpec::Retroactive)
//!     .build()?;
//! let clock = Arc::new(ManualClock::new(Timestamp::from_secs(1_000)));
//! let mut relation = TemporalRelation::new(schema, clock).with_ingest_shards(4);
//!
//! let batch: Vec<BatchRecord> = (0..100_u64)
//!     .map(|i| BatchRecord::new(ObjectId::new(i % 8), Timestamp::from_secs(i as i64)))
//!     .collect();
//! let report = relation.apply_batch(batch);
//! assert!(report.all_accepted());
//! assert_eq!(report.shards_used, 4);
//!
//! // Stage timings and admission counters land in the global `tempora-obs`
//! // registry (see docs/observability.md for the catalog).
//! let snapshot = tempora_obs::snapshot();
//! assert!(snapshot.counter_total("tempora_ingest_records_total") >= 100);
//! # Ok::<(), tempora_core::CoreError>(())
//! ```
//!
//! [`Basis::PerRelation`]: tempora_core::Basis::PerRelation
//! [`TemporalRelation::apply_batch`]: crate::TemporalRelation::apply_batch

use tempora_core::{AttrName, CoreError, ElementId, ObjectId, ValidTime, Value};

/// One insertion in an update batch: the fact without its stamps. The
/// transaction time is assigned by the relation's clock at application,
/// the surrogate by the relation's element counter.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// The object (surrogate partition) the fact belongs to.
    pub object: ObjectId,
    /// The fact's valid time (event or interval).
    pub valid: ValidTime,
    /// Explicit attribute values.
    pub attrs: Vec<(AttrName, Value)>,
}

impl BatchRecord {
    /// A record with no explicit attributes.
    #[must_use]
    pub fn new(object: ObjectId, valid: impl Into<ValidTime>) -> Self {
        BatchRecord {
            object,
            valid: valid.into(),
            attrs: Vec::new(),
        }
    }

    /// A record carrying attribute values.
    #[must_use]
    pub fn with_attrs(
        object: ObjectId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Self {
        BatchRecord {
            object,
            valid: valid.into(),
            attrs,
        }
    }
}

/// The outcome of [`TemporalRelation::apply_batch`]: per-record results in
/// batch order plus how the batch was executed.
///
/// [`TemporalRelation::apply_batch`]: crate::TemporalRelation::apply_batch
#[derive(Debug)]
pub struct BatchReport {
    /// Surrogates of accepted records, in batch order.
    pub accepted: Vec<ElementId>,
    /// `(batch index, error)` for each rejected record, in batch order.
    pub rejected: Vec<(usize, CoreError)>,
    /// Number of shards the batch was partitioned into (1 when the batch
    /// ran sequentially).
    pub shards_used: usize,
    /// Whether the parallel per-shard check stage ran.
    pub parallel: bool,
}

impl BatchReport {
    /// Whether every record was accepted.
    #[must_use]
    pub fn all_accepted(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Routes an object to its shard: a Fibonacci-hash spread of the surrogate
/// so consecutive object ids do not pile onto one shard.
#[must_use]
pub fn shard_of(object: ObjectId, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let spread = object.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // High bits carry the mix; modulo keeps arbitrary (non-power-of-two)
    // shard counts uniform enough for routing.
    ((spread >> 32) as usize) % shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for raw in 0..1_000 {
            let object = ObjectId::new(raw);
            for shards in 1..8 {
                let s = shard_of(object, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(object, shards));
            }
        }
    }

    #[test]
    fn shard_routing_spreads_consecutive_ids() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for raw in 0..10_000 {
            counts[shard_of(ObjectId::new(raw), shards)] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(
                (1_500..=3_500).contains(count),
                "shard {shard} holds {count} of 10000"
            );
        }
    }
}
