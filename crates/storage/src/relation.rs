//! The temporal relation façade: schema + clock + constraints + storage.

use std::fmt;
use std::sync::Arc;

use tempora_time::{TimeDelta, Timestamp, TransactionClock};

use tempora_core::constraint::ConstraintEngine;
use tempora_core::{
    AttrName, CoreError, Element, ElementId, ObjectId, RelationSchema, Stamping, Value, ValidTime,
};

use crate::chunks::ElementChunks;
use crate::ingest::{BatchRecord, BatchReport};
use crate::store::ElementStore;

/// Re-addresses a rejection's diagnostics to the surrogate the sequential
/// path would have attempted the element under.
fn rebrand(err: CoreError, id: ElementId) -> CoreError {
    match err {
        CoreError::Violations(mut vs) => {
            for v in &mut vs {
                v.element = id;
            }
            CoreError::Violations(vs)
        }
        CoreError::ElementMismatch { reason, .. } => CoreError::ElementMismatch {
            element: id,
            reason,
        },
        other => other,
    }
}

/// Whether declared specializations are enforced on update.
///
/// `Trust` skips constraint checking — the mode a deployment would use
/// after validating a bulk load, and the baseline the enforcement-overhead
/// bench compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// Check every update against the declared specializations (default).
    Enforce,
    /// Trust the writer; skip constraint checks.
    Trust,
}

/// Update counters, exposed for benches and monitoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    /// Successful inserts.
    pub inserts: u64,
    /// Successful logical deletes.
    pub deletes: u64,
    /// Successful modifications.
    pub modifications: u64,
    /// Updates rejected by the constraint engine.
    pub rejections: u64,
    /// Per-spec checks skipped across all admitted updates because
    /// dead-constraint elimination proved them implied by another declared
    /// spec (see `tempora_core::constraint::CompiledChecks`): the
    /// admission work the static analyzer's TS005 verdict saved.
    pub checks_elided: u64,
    /// Configured ingest shard count (see
    /// [`TemporalRelation::with_ingest_shards`]).
    pub shards: usize,
    /// Constraint rejections attributed to each ingest shard by the batch
    /// router ([`crate::ingest::shard_of`]); `rejections` is always the sum
    /// of this vector. Reset when the shard count is reconfigured.
    pub shard_rejections: Vec<u64>,
}

impl Default for RelationStats {
    fn default() -> Self {
        RelationStats {
            inserts: 0,
            deletes: 0,
            modifications: 0,
            rejections: 0,
            checks_elided: 0,
            shards: 1,
            shard_rejections: vec![0],
        }
    }
}

/// A bitemporal relation: elements with valid and transaction time, a
/// declared set of specializations (enforced on update), and
/// representation-appropriate reads.
///
/// Transaction times come from the injected [`TransactionClock`] — tests
/// and workloads drive a [`tempora_time::ManualClock`], deployments a
/// [`tempora_time::SystemClock`].
pub struct TemporalRelation {
    schema: Arc<RelationSchema>,
    engine: ConstraintEngine,
    clock: Arc<dyn TransactionClock>,
    store: ElementStore,
    enforcement: Enforcement,
    ingest_shards: usize,
    next_element: u64,
    stats: RelationStats,
}

impl TemporalRelation {
    /// Creates a relation. Its element store takes its ordering from the
    /// schema (§1: the semantics "may be used for selecting appropriate
    /// storage structures"): relations whose declarations guarantee
    /// valid-time-ordered arrival (degenerate, relation-wide sequential or
    /// non-decreasing) get the append-only, valid-time-searchable form.
    #[must_use]
    pub fn new(schema: Arc<RelationSchema>, clock: Arc<dyn TransactionClock>) -> Self {
        TemporalRelation {
            engine: ConstraintEngine::new(Arc::clone(&schema)),
            store: ElementStore::new(&schema),
            schema,
            clock,
            enforcement: Enforcement::Enforce,
            ingest_shards: 1,
            next_element: 0,
            stats: RelationStats::default(),
        }
    }

    /// Sets the enforcement mode.
    #[must_use]
    pub fn with_enforcement(mut self, mode: Enforcement) -> Self {
        self.enforcement = mode;
        self
    }

    /// Sets the ingest shard count used by [`Self::apply_batch`] (builder
    /// form of [`Self::set_ingest_shards`]).
    #[must_use]
    pub fn with_ingest_shards(mut self, shards: usize) -> Self {
        self.set_ingest_shards(shards);
        self
    }

    /// Sets the ingest shard count used by [`Self::apply_batch`]. A count
    /// of 1 (the default) keeps batches on the sequential path. Resets the
    /// per-shard rejection counters to match the new count.
    pub fn set_ingest_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        self.ingest_shards = shards;
        self.stats.shards = shards;
        self.stats.shard_rejections = vec![0; shards];
        crate::metrics::ingest_shards().set(i64::try_from(shards).unwrap_or(i64::MAX));
    }

    /// The configured ingest shard count.
    #[must_use]
    pub fn ingest_shards(&self) -> usize {
        self.ingest_shards
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// Update counters.
    #[must_use]
    pub fn stats(&self) -> RelationStats {
        self.stats.clone()
    }

    /// Whether the relation uses the append-only representation: its
    /// store is valid-time ordered (see [`ElementStore::is_vt_ordered`]).
    #[must_use]
    pub fn is_append_only(&self) -> bool {
        self.store.is_vt_ordered()
    }

    /// The current transaction time (without consuming a stamp).
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Inserts a fact: stamps it with a fresh transaction time, checks the
    /// declared specializations, and stores it. Returns the new element's
    /// surrogate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Violations`] when the element would violate a
    /// declared specialization (the relation is unchanged), or a storage
    /// error if invariants are broken.
    pub fn insert(
        &mut self,
        object: ObjectId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Result<ElementId, CoreError> {
        let tt = self.clock.tick();
        let result = self.insert_stamped(object, valid.into(), attrs, tt);
        self.engine.publish_check_metrics();
        result
    }

    /// [`Self::insert`] with the transaction time already drawn from the
    /// clock — the shared tail of the single-insert and batch paths.
    fn insert_stamped(
        &mut self,
        object: ObjectId,
        valid: ValidTime,
        attrs: Vec<(AttrName, Value)>,
        tt: Timestamp,
    ) -> Result<ElementId, CoreError> {
        let id = ElementId::new(self.next_element);
        let mut element = Element::new(id, object, valid, tt);
        element.attrs = attrs;
        if self.enforcement == Enforcement::Enforce {
            if let Err(e) = self.engine.admit_insert(&element) {
                self.note_rejection(object);
                return Err(e);
            }
        }
        self.store.insert(element)?;
        self.next_element += 1;
        self.stats.inserts += 1;
        self.stats.checks_elided +=
            u64::try_from(self.engine.compiled().elided_insert_events().len()).unwrap_or(0);
        Ok(id)
    }

    /// Counts a constraint rejection, attributing it to the shard the
    /// batch router would send `object` to.
    fn note_rejection(&mut self, object: ObjectId) {
        self.stats.rejections += 1;
        let shard = crate::ingest::shard_of(object, self.stats.shard_rejections.len());
        self.stats.shard_rejections[shard] += 1;
    }

    /// Applies a batch of insertions, sharding constraint checks across
    /// threads when the schema permits.
    ///
    /// Semantically this is exactly `for r in records { self.insert(...) }`
    /// — same transaction stamps, same surrogate assignment, same per-record
    /// accept/reject decisions and counters — reported per record instead of
    /// short-circuiting. The parallel stage runs when all of these hold:
    ///
    /// * more than one ingest shard is configured
    ///   ([`Self::set_ingest_shards`]) and the batch outnumbers the shards;
    /// * the relation is in [`Enforcement::Enforce`] mode (under `Trust`
    ///   there is no per-element check worth parallelizing);
    /// * every declared inter-element specialization is partition-local and
    ///   no determined spec is declared
    ///   ([`ConstraintEngine::is_shard_partitionable`]) — otherwise
    ///   admission order across objects is semantically significant and the
    ///   whole batch takes the sequential stage.
    ///
    /// Records are hash-partitioned by object surrogate
    /// ([`crate::ingest::shard_of`]); each shard checks its records in
    /// batch order against the engine state split off for its objects, and
    /// the main thread then applies the decisions — surrogate assignment,
    /// store writes, counters — in batch order.
    pub fn apply_batch(&mut self, records: Vec<BatchRecord>) -> BatchReport {
        let _span = tempora_obs::span_with(
            "apply-batch",
            format!("{}, {} records", self.schema.name(), records.len()),
        );
        let shards = self.ingest_shards;
        // One clock tick per record, drawn up front and consumed whether or
        // not the record is accepted — identical to sequential insertion.
        let sw_stamp = tempora_obs::Stopwatch::start();
        let stamps: Vec<Timestamp> = records.iter().map(|_| self.clock.tick()).collect();
        sw_stamp.record(crate::metrics::stage_stamp());
        let parallel = shards > 1
            && records.len() > shards
            && self.enforcement == Enforcement::Enforce
            && self.engine.is_shard_partitionable();
        if !parallel {
            // Admission and application are interleaved per record here, so
            // the whole loop is attributed to the apply stage (the catalog
            // in docs/observability.md notes this).
            let sw_apply = tempora_obs::Stopwatch::start();
            let mut accepted = Vec::new();
            let mut rejected = Vec::new();
            for (idx, (record, tt)) in records.into_iter().zip(stamps).enumerate() {
                match self.insert_stamped(record.object, record.valid, record.attrs, tt) {
                    Ok(id) => accepted.push(id),
                    Err(e) => rejected.push((idx, e)),
                }
            }
            sw_apply.record(crate::metrics::stage_apply());
            self.engine.publish_check_metrics();
            crate::metrics::batches_sequential().inc();
            crate::metrics::records_accepted().add(accepted.len() as u64);
            crate::metrics::records_rejected().add(rejected.len() as u64);
            return BatchReport {
                accepted,
                rejected,
                shards_used: 1,
                parallel: false,
            };
        }

        // Check stage: partition by object, check each shard in parallel
        // against its split-off slice of the engine's per-object state.
        let sw_check = tempora_obs::Stopwatch::start();
        let objects: Vec<ObjectId> = records.iter().map(|r| r.object).collect();
        let mut work: Vec<Vec<(usize, BatchRecord, Timestamp)>> = vec![Vec::new(); shards];
        for (idx, (record, tt)) in records.into_iter().zip(stamps).enumerate() {
            work[crate::ingest::shard_of(record.object, shards)].push((idx, record, tt));
        }
        let engines = self.engine.split_shards(shards, |o| crate::ingest::shard_of(o, shards));
        let base = self.next_element;
        let mut decisions: Vec<Option<Result<Element, CoreError>>> =
            (0..objects.len()).map(|_| None).collect();
        // Shard count is a constraint-partitioning choice; thread count is a
        // host-capability choice. Worker threads each drain a round-robin
        // share of the shard engines, so 8 shards on a 2-core box costs two
        // spawns, not eight, and a single-core box checks inline.
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(shards);
        let check_shard = move |(mut engine, shard_work): (
            ConstraintEngine,
            Vec<(usize, BatchRecord, Timestamp)>,
        )| {
            // Per-shard check latency, recorded from the worker thread.
            let sw_shard = tempora_obs::Stopwatch::start();
            let mut out = Vec::with_capacity(shard_work.len());
            for (idx, record, tt) in shard_work {
                // Provisional surrogate: surrogates are assigned in batch
                // order during the apply stage; the admission decision
                // cannot observe them (that is what
                // `is_shard_partitionable` guarantees), only violation
                // diagnostics can, and those are re-branded below.
                let provisional = ElementId::new(base + idx as u64);
                let mut element = Element::new(provisional, record.object, record.valid, tt);
                element.attrs = record.attrs;
                let decision = engine.admit_insert(&element).map(|()| element);
                out.push((idx, decision));
            }
            sw_shard.record(crate::metrics::shard_check());
            (engine, out)
        };
        let pairs: Vec<_> = engines.into_iter().zip(work).collect();
        let checked: Vec<_> = if workers <= 1 {
            pairs.into_iter().map(check_shard).collect()
        } else {
            let mut buckets: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, pair) in pairs.into_iter().enumerate() {
                buckets[i % workers].push(pair);
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| {
                        scope.spawn(move || {
                            bucket.into_iter().map(check_shard).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|handle| handle.join().expect("ingest worker panicked"))
                    .collect()
            })
        };
        for (engine, out) in checked {
            self.engine.absorb_shard(engine);
            for (idx, decision) in out {
                decisions[idx] = Some(decision);
            }
        }
        sw_check.record(crate::metrics::stage_check());

        // Apply stage: batch order, exactly the sequential tail.
        let sw_apply = tempora_obs::Stopwatch::start();
        let mut accepted = Vec::new();
        let mut rejected = Vec::new();
        for (idx, decision) in decisions.into_iter().enumerate() {
            match decision.expect("every record carries a decision") {
                Ok(mut element) => {
                    let id = ElementId::new(self.next_element);
                    element.id = id;
                    if let Err(e) = self.store.insert(element) {
                        // Storage invariant failure, not a constraint
                        // rejection: reported but not counted, as in the
                        // sequential path.
                        rejected.push((idx, e));
                        continue;
                    }
                    self.next_element += 1;
                    self.stats.inserts += 1;
                    self.stats.checks_elided += u64::try_from(
                        self.engine.compiled().elided_insert_events().len(),
                    )
                    .unwrap_or(0);
                    accepted.push(id);
                }
                Err(e) => {
                    self.note_rejection(objects[idx]);
                    // Sequential insertion would have attempted this record
                    // with the *current* next surrogate; fix diagnostics up
                    // to match.
                    rejected.push((idx, rebrand(e, ElementId::new(self.next_element))));
                }
            }
        }
        sw_apply.record(crate::metrics::stage_apply());
        self.engine.publish_check_metrics();
        crate::metrics::batches_parallel().inc();
        crate::metrics::records_accepted().add(accepted.len() as u64);
        crate::metrics::records_rejected().add(rejected.len() as u64);
        BatchReport {
            accepted,
            rejected,
            shards_used: shards,
            parallel: true,
        }
    }

    /// Logically deletes an element at a fresh transaction time. Returns
    /// the deletion time `tt_d`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchElement`] for unknown/deleted elements,
    /// or [`CoreError::Violations`] when a deletion-referenced
    /// specialization would be violated.
    pub fn delete(&mut self, id: ElementId) -> Result<Timestamp, CoreError> {
        let element = self
            .get(id)
            .filter(|e| e.is_current())
            .cloned()
            .ok_or(CoreError::NoSuchElement { element: id })?;
        let tt_d = self.clock.tick();
        if self.enforcement == Enforcement::Enforce {
            let admitted = self.engine.admit_delete(&element, tt_d);
            self.engine.publish_check_metrics();
            if let Err(e) = admitted {
                self.note_rejection(element.object);
                return Err(e);
            }
        }
        self.store.delete(id, tt_d)?;
        self.stats.deletes += 1;
        self.stats.checks_elided +=
            u64::try_from(self.engine.compiled().elided_delete_events().len()).unwrap_or(0);
        Ok(tt_d)
    }

    /// Modifies an element: logically deletes the old one and stores a new
    /// element with the modified fact at the same transaction time (§2:
    /// "the element in the current historical state is (logically)
    /// deleted, and a new element, recording the modified information, is
    /// stored in the new historical state"). Returns the new surrogate.
    ///
    /// # Errors
    ///
    /// As for [`Self::delete`] and [`Self::insert`]; the modification is
    /// atomic — on any violation the relation is unchanged.
    pub fn modify(
        &mut self,
        id: ElementId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Result<ElementId, CoreError> {
        let old = self
            .get(id)
            .filter(|e| e.is_current())
            .cloned()
            .ok_or(CoreError::NoSuchElement { element: id })?;
        let tt = self.clock.tick();
        let new_id = ElementId::new(self.next_element);
        let mut element = Element::new(new_id, old.object, valid, tt);
        element.attrs = attrs;
        if self.enforcement == Enforcement::Enforce {
            // Stage both halves against a scratch engine state so a failed
            // insert does not leave the delete's effects behind. Flush the
            // check tally first so the clone starts from zero and neither
            // outcome double-publishes.
            self.engine.publish_check_metrics();
            let mut scratch = self.engine.clone();
            if let Err(e) = scratch
                .admit_delete(&old, tt)
                .and_then(|()| scratch.admit_insert(&element))
            {
                scratch.publish_check_metrics();
                self.note_rejection(old.object);
                return Err(e);
            }
            self.engine = scratch;
            self.engine.publish_check_metrics();
        }
        self.store.delete(id, tt)?;
        self.store.insert(element)?;
        self.next_element += 1;
        self.stats.modifications += 1;
        Ok(new_id)
    }

    /// The element by surrogate (current or deleted).
    #[must_use]
    pub fn get(&self, id: ElementId) -> Option<&Element> {
        self.store.get(id)
    }

    /// All elements ever stored, in transaction-time order.
    pub fn iter(&self) -> impl Iterator<Item = &Element> {
        self.store.iter()
    }

    /// The current state (a *current query*, §1).
    pub fn iter_current(&self) -> impl Iterator<Item = &Element> {
        self.store.iter_current()
    }

    /// The historical state at transaction time `tt` (a *rollback query*,
    /// §1).
    pub fn iter_at(&self, tt: Timestamp) -> impl Iterator<Item = &Element> + '_ {
        self.store.iter_at(tt)
    }

    /// Current elements whose valid time covers `vt` (a *historical query*
    /// / valid timeslice, §1). Representation-aware: ordered event stores
    /// binary-search the run of matching valid begins; interval-stamped
    /// and general stores scan. (The full planner with tt-proxy
    /// optimization and auxiliary indexes lives in `tempora-query`; this
    /// is the storage-level answer.)
    pub fn timeslice(&self, vt: Timestamp) -> Vec<&Element> {
        // In an ordered store an event stamp covers `vt` exactly when it
        // equals `vt`: the answer is the run [vt, vt+ε), found by binary
        // search. Interval stamps with earlier begins may still cover `vt`,
        // so they (and unordered stores) scan.
        if self.schema.stamping() == Stamping::Event {
            let end = vt.saturating_add(TimeDelta::RESOLUTION);
            if let Some(run) = self.store.slice_by_vt_begin(vt, end) {
                return run.filter(|e| e.is_current()).collect();
            }
        }
        self.timeslice_scan(vt)
    }

    /// [`Self::timeslice`] by exhaustive scan, whatever the
    /// representation — the oracle the differential tests compare the
    /// representation-aware and index-backed paths against.
    pub fn timeslice_scan(&self, vt: Timestamp) -> Vec<&Element> {
        self.iter_current().filter(|e| e.valid.covers(vt)).collect()
    }

    /// Elements with `tt_b` in the inclusive window `[lo, hi]` — the
    /// binary-searched transaction-time probe issued by the tt-proxy
    /// strategy.
    pub fn tt_range(&self, lo: Timestamp, hi: Timestamp) -> impl Iterator<Item = &Element> + '_ {
        self.store.tt_range(lo, hi)
    }

    /// Elements whose valid begin lies in `[from, to)`, when the relation
    /// uses the append-only (valid-time-ordered) representation; `None`
    /// otherwise.
    pub fn vt_ordered_slice(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> Option<impl Iterator<Item = &Element> + '_> {
        self.store.slice_by_vt_begin(from, to)
    }

    /// An immutable chunk view of every element ever stored, in
    /// transaction-time order — the raw material of a pinned snapshot.
    /// Sealed chunks are shared by pointer; only the open tail chunk is
    /// copied, so the cost is independent of relation size (see
    /// [`crate::chunks`]).
    #[must_use]
    pub fn snapshot_elements(&self) -> ElementChunks {
        self.store.snapshot()
    }

    /// Every element of one object's life-line (current and deleted), in
    /// insertion order.
    pub fn iter_object_history(&self, object: ObjectId) -> impl Iterator<Item = &Element> + '_ {
        self.store.iter_object_history(object)
    }

    /// Number of elements ever stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the relation has never been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physically reclaims logically deleted elements the predicate
    /// rejects (see [`crate::vacuum`] for specialization-aware policies).
    /// Returns the number reclaimed. No-op on append-only stores: their
    /// point is full history retention.
    pub fn reclaim(&mut self, keep: impl FnMut(&Element) -> bool) -> usize {
        self.store.reclaim(keep)
    }
}

impl fmt::Debug for TemporalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemporalRelation")
            .field("schema", &self.schema.name())
            .field("len", &self.len())
            .field("append_only", &self.is_append_only())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::spec::bound::Bound;
    use tempora_core::spec::event::EventSpec;
    use tempora_core::spec::interevent::OrderingSpec;
    use tempora_core::{Basis, Stamping};
    use tempora_time::{ManualClock, TimeDelta};

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn clock_at(s: i64) -> Arc<ManualClock> {
        Arc::new(ManualClock::new(ts(s)))
    }

    fn general_schema() -> Arc<RelationSchema> {
        RelationSchema::builder("r", Stamping::Event).build().unwrap()
    }

    #[test]
    fn insert_stamps_with_clock() {
        let clock = clock_at(100);
        let mut rel = TemporalRelation::new(general_schema(), clock.clone());
        let id = rel.insert(ObjectId::new(1), ts(50), vec![]).unwrap();
        let e = rel.get(id).unwrap();
        assert_eq!(e.tt_begin, ts(100));
        assert_eq!(e.valid, ValidTime::Event(ts(50)));
        clock.advance(TimeDelta::from_secs(10));
        let id2 = rel.insert(ObjectId::new(1), ts(60), vec![]).unwrap();
        assert_eq!(rel.get(id2).unwrap().tt_begin, ts(110));
        assert_eq!(rel.stats().inserts, 2);
    }

    #[test]
    fn violation_rejects_and_counts() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::Retroactive)
            .build()
            .unwrap();
        let mut rel = TemporalRelation::new(schema, clock_at(100));
        assert!(rel.insert(ObjectId::new(1), ts(500), vec![]).is_err());
        assert_eq!(rel.stats().rejections, 1);
        assert_eq!(rel.len(), 0);
        // Trust mode admits the same fact.
        let schema2 = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::Retroactive)
            .build()
            .unwrap();
        let mut trusting =
            TemporalRelation::new(schema2, clock_at(100)).with_enforcement(Enforcement::Trust);
        assert!(trusting.insert(ObjectId::new(1), ts(500), vec![]).is_ok());
    }

    #[test]
    fn dead_constraint_elimination_counts_elided_checks() {
        // 'delayed retroactive 30s' implies 'retroactive', so the compiled
        // checks drop the latter; every admitted update skips one check.
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::DelayedRetroactive {
                delay: Bound::secs(30),
            })
            .event_spec(EventSpec::Retroactive)
            .build()
            .unwrap();
        let mut rel = TemporalRelation::new(schema, clock_at(1_000));
        for i in 0..5 {
            rel.insert(ObjectId::new(i), ts(900 + i as i64), vec![]).unwrap();
        }
        assert_eq!(rel.stats().checks_elided, 5);

        // Without a redundant spec there is nothing to elide.
        let lone = RelationSchema::builder("s", Stamping::Event)
            .event_spec(EventSpec::Retroactive)
            .build()
            .unwrap();
        let mut lone_rel = TemporalRelation::new(lone, clock_at(1_000));
        lone_rel.insert(ObjectId::new(1), ts(900), vec![]).unwrap();
        assert_eq!(lone_rel.stats().checks_elided, 0);
    }

    #[test]
    fn representation_selection() {
        let deg = RelationSchema::builder("d", Stamping::Event)
            .event_spec(EventSpec::Degenerate)
            .build()
            .unwrap();
        assert!(TemporalRelation::new(deg, clock_at(0)).is_append_only());

        let seq = RelationSchema::builder("s", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        assert!(TemporalRelation::new(seq, clock_at(0)).is_append_only());

        assert!(!TemporalRelation::new(general_schema(), clock_at(0)).is_append_only());
    }

    #[test]
    fn delete_and_rollback() {
        let clock = clock_at(0);
        let mut rel = TemporalRelation::new(general_schema(), clock.clone());
        clock.set(ts(10));
        let a = rel.insert(ObjectId::new(1), ts(5), vec![]).unwrap();
        clock.set(ts(20));
        let _b = rel.insert(ObjectId::new(1), ts(6), vec![]).unwrap();
        clock.set(ts(30));
        rel.delete(a).unwrap();
        assert_eq!(rel.iter_current().count(), 1);
        assert_eq!(rel.iter_at(ts(25)).count(), 2);
        assert_eq!(rel.iter_at(ts(30)).count(), 1);
        assert_eq!(rel.stats().deletes, 1);
        // Deleting again fails.
        assert!(rel.delete(a).is_err());
    }

    #[test]
    fn modify_is_delete_plus_insert_same_tt() {
        let clock = clock_at(10);
        let mut rel = TemporalRelation::new(general_schema(), clock.clone());
        let a = rel
            .insert(ObjectId::new(1), ts(5), vec![(AttrName::new("v"), Value::Int(1))])
            .unwrap();
        clock.set(ts(20));
        let b = rel
            .modify(a, ts(5), vec![(AttrName::new("v"), Value::Int(2))])
            .unwrap();
        assert_ne!(a, b); // fresh element surrogate (§2)
        let old = rel.get(a).unwrap();
        let new = rel.get(b).unwrap();
        assert_eq!(old.tt_end, Some(new.tt_begin)); // same transaction time
        assert_eq!(new.attr("v"), Some(&Value::Int(2)));
        assert_eq!(rel.stats().modifications, 1);
    }

    #[test]
    fn modify_violation_leaves_relation_unchanged() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::RetroactivelyBounded {
                bound: Bound::secs(10),
            })
            .build()
            .unwrap();
        let clock = clock_at(100);
        let mut rel = TemporalRelation::new(schema, clock.clone());
        let a = rel.insert(ObjectId::new(1), ts(95), vec![]).unwrap();
        clock.set(ts(200));
        // New valid time 20 violates the bound (200 − 10 = 190 > 20).
        assert!(rel.modify(a, ts(20), vec![]).is_err());
        let e = rel.get(a).unwrap();
        assert!(e.is_current(), "old element must survive a failed modify");
        assert_eq!(rel.iter_current().count(), 1);
        // And a legal modify still works afterwards.
        assert!(rel.modify(a, ts(195), vec![]).is_ok());
    }

    #[test]
    fn timeslice_reads() {
        let clock = clock_at(0);
        let mut rel = TemporalRelation::new(general_schema(), clock.clone());
        clock.set(ts(100));
        rel.insert(ObjectId::new(1), ts(5), vec![]).unwrap();
        rel.insert(ObjectId::new(2), ts(5), vec![]).unwrap();
        rel.insert(ObjectId::new(3), ts(7), vec![]).unwrap();
        assert_eq!(rel.timeslice(ts(5)).len(), 2);
        assert_eq!(rel.timeslice(ts(7)).len(), 1);
        assert_eq!(rel.timeslice(ts(6)).len(), 0);
    }

    #[test]
    fn append_event_timeslice_matches_scan_oracle() {
        // The ordered-event fast path (binary search on the vt run) must
        // agree with the exhaustive scan, including around deletions.
        let schema = RelationSchema::builder("s", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        let clock = clock_at(0);
        let mut rel = TemporalRelation::new(schema, clock.clone());
        let mut ids = Vec::new();
        for i in 0..300_i64 {
            clock.set(ts(i * 10 + 5));
            ids.push(rel.insert(ObjectId::new(1), ts(i * 10), vec![]).unwrap());
        }
        clock.set(ts(10_000));
        rel.delete(ids[50]).unwrap();
        rel.delete(ids[51]).unwrap();
        for probe in [0_i64, 500, 510, 520, 1_995, 2_990, 9_999] {
            let fast: Vec<ElementId> = rel.timeslice(ts(probe)).iter().map(|e| e.id).collect();
            let slow: Vec<ElementId> =
                rel.timeslice_scan(ts(probe)).iter().map(|e| e.id).collect();
            assert_eq!(fast, slow, "probe {probe}");
        }
    }

    #[test]
    fn snapshot_elements_isolated_from_later_writes() {
        let clock = clock_at(0);
        let mut rel = TemporalRelation::new(general_schema(), clock.clone());
        clock.set(ts(10));
        let a = rel.insert(ObjectId::new(1), ts(5), vec![]).unwrap();
        clock.set(ts(20));
        rel.insert(ObjectId::new(2), ts(6), vec![]).unwrap();
        let snap = rel.snapshot_elements();
        assert_eq!(snap.len(), 2);
        clock.set(ts(30));
        rel.delete(a).unwrap();
        clock.set(ts(40));
        rel.insert(ObjectId::new(3), ts(7), vec![]).unwrap();
        // The view still shows the pre-write state.
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get(0).unwrap().tt_end, None);
        // The live relation moved on.
        assert_eq!(rel.len(), 3);
        assert!(rel.get(a).unwrap().tt_end.is_some());
    }

    #[test]
    fn rollback_read_matches_snapshot_view() {
        let clock = clock_at(0);
        let mut rel = TemporalRelation::new(general_schema(), clock.clone());
        clock.set(ts(10));
        let a = rel.insert(ObjectId::new(1), ts(1), vec![]).unwrap();
        clock.set(ts(20));
        rel.insert(ObjectId::new(2), ts(2), vec![]).unwrap();
        clock.set(ts(30));
        rel.delete(a).unwrap();
        // The pinned chunk view is taken after the delete; filtering it by
        // existence interval must reproduce every earlier rollback read.
        let view = rel.snapshot_elements();
        for probe in [5, 10, 15, 20, 25, 30, 35] {
            let from_store: Vec<ElementId> = rel.iter_at(ts(probe)).map(|e| e.id).collect();
            let from_view: Vec<ElementId> = view
                .iter()
                .filter(|e| e.existed_at(ts(probe)))
                .map(|e| e.id)
                .collect();
            assert_eq!(from_store, from_view, "state at tt {probe}");
        }
    }
}
