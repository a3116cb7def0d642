//! A small multi-relation database façade: DDL in, TQL out.
//!
//! Ties the whole stack together behind two strings:
//!
//! ```
//! use std::sync::Arc;
//! use tempora_design::Database;
//! use tempora_time::{ManualClock, Timestamp};
//! use tempora_core::{ObjectId, Value, AttrName};
//!
//! let clock = Arc::new(ManualClock::new("1992-02-12T09:00:00".parse().unwrap()));
//! let db = Database::new(clock);
//! db.execute_ddl(
//!     "CREATE TEMPORAL RELATION plant (sensor KEY, temperature VARYING)
//!      AS EVENT WITH RETROACTIVE",
//! ).unwrap();
//! db.insert(
//!     "plant",
//!     ObjectId::new(1),
//!     "1992-02-12T08:58:00".parse::<Timestamp>().unwrap(),
//!     vec![(AttrName::new("temperature"), Value::Float(19.5))],
//! ).unwrap();
//! let result = db.query("SELECT FROM plant AT 1992-02-12T08:58:00").unwrap();
//! assert_eq!(result.stats.returned, 1);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use tempora_analyze::{analyze_schema, Analysis, Diagnostic};
use tempora_core::spec::chain::ChainSpec;
use tempora_core::{AttrName, CoreError, ElementId, ObjectId, RelationSchema, ValidTime, Value};
use tempora_query::{parse_tql, AnnotatedPlan, IndexedRelation, QueryResult, SnapshotRelation, TqlError};
use tempora_storage::{BatchRecord, BatchReport};
use tempora_time::{Timestamp, TransactionClock};

use crate::ddl::{parse_ddl_unchecked, DdlError};
use crate::snapshot::DbSnapshot;

/// Errors from the database façade.
#[derive(Debug)]
#[non_exhaustive]
pub enum DbError {
    /// DDL parsing or validation failed.
    Ddl(DdlError),
    /// TQL parsing failed.
    Tql(TqlError),
    /// A constraint or storage error.
    Core(CoreError),
    /// The statement referenced an unknown relation.
    UnknownRelation(
        /// The missing name.
        String,
    ),
    /// A relation with that name already exists.
    DuplicateRelation(
        /// The clashing name.
        String,
    ),
    /// The static analyzer rejected the schema: it is unsatisfiable or
    /// self-contradictory (Error-level diagnostics). Create with
    /// [`Database::execute_ddl_forced`] to override.
    Analysis(
        /// The analyzer's findings (errors first).
        Vec<Diagnostic>,
    ),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Ddl(e) => write!(f, "{e}"),
            DbError::Tql(e) => write!(f, "{e}"),
            DbError::Core(e) => write!(f, "{e}"),
            DbError::UnknownRelation(name) => write!(f, "unknown relation {name:?}"),
            DbError::DuplicateRelation(name) => write!(f, "relation {name:?} already exists"),
            DbError::Analysis(diagnostics) => {
                write!(f, "schema rejected by static analysis:")?;
                for d in diagnostics {
                    for line in d.to_string().lines() {
                        write!(f, "\n  {line}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<DdlError> for DbError {
    fn from(e: DdlError) -> Self {
        DbError::Ddl(e)
    }
}

impl From<TqlError> for DbError {
    fn from(e: TqlError) -> Self {
        DbError::Tql(e)
    }
}

impl From<CoreError> for DbError {
    fn from(e: CoreError) -> Self {
        DbError::Core(e)
    }
}

/// A collection of temporal relations sharing one transaction clock,
/// driven by DDL and TQL strings.
pub struct Database {
    clock: Arc<dyn TransactionClock>,
    relations: RwLock<BTreeMap<String, IndexedRelation>>,
    /// Declared flow chains: (upstream, downstream) → specialization.
    chains: RwLock<BTreeMap<(String, String), ChainSpec>>,
    /// Memoized current-tick snapshot, invalidated by every write path.
    snapshot_cache: RwLock<Option<Arc<DbSnapshot>>>,
}

impl Database {
    /// Creates an empty database on the given transaction clock.
    #[must_use]
    pub fn new(clock: Arc<dyn TransactionClock>) -> Self {
        Database {
            clock,
            relations: RwLock::new(BTreeMap::new()),
            chains: RwLock::new(BTreeMap::new()),
            snapshot_cache: RwLock::new(None),
        }
    }

    /// Captures an immutable [`DbSnapshot`] pinned at the clock's last
    /// issued stamp ([`TransactionClock::last_tick`]): every write stamped
    /// so far is visible, and every later write is stamped strictly after
    /// the pin, so [`Self::snapshot_at`] at the pin reproduces this view
    /// forever. (The clock's `now` would not do: a write stamped later may
    /// carry that same reading.) O(chunks + tail) per relation — sealed
    /// storage chunks are shared, not copied — so snapshots are cheap
    /// enough to take per served request.
    #[must_use]
    pub fn snapshot(&self) -> DbSnapshot {
        self.snapshot_at(self.clock.last_tick())
    }

    /// Captures a snapshot pinned at an arbitrary transaction tick.
    /// Transaction time is append-only, so a past pin reconstructs the
    /// database exactly as it stood then — elements inserted later are
    /// invisible and deletions stamped later are unwound.
    #[must_use]
    pub fn snapshot_at(&self, pin: Timestamp) -> DbSnapshot {
        let relations = self.relations.read();
        let pinned = relations
            .iter()
            .map(|(name, rel)| {
                (
                    name.clone(),
                    SnapshotRelation::new(
                        Arc::clone(rel.relation().schema()),
                        rel.relation().snapshot_elements(),
                        pin,
                    ),
                )
            })
            .collect();
        DbSnapshot::assemble(pin, pinned)
    }

    /// A shared snapshot of the current state, memoized until the next
    /// write. Concurrent readers between two writes reuse one capture;
    /// after any insert/delete/modify/batch/DDL the next call re-captures.
    /// This is the serving layer's read path: queries run against the
    /// returned snapshot without holding any database lock.
    ///
    /// Counts memo hits and misses (`tempora_snapshot_memo_hits_total`,
    /// `tempora_snapshot_memo_misses_total`) and times each capture
    /// (`tempora_snapshot_capture_seconds`).
    #[must_use]
    pub fn latest_snapshot(&self) -> Arc<DbSnapshot> {
        if let Some(cached) = self.snapshot_cache.read().as_ref() {
            tempora_obs::counter("tempora_snapshot_memo_hits_total").inc();
            return Arc::clone(cached);
        }
        // Capture under the cache write lock: writers invalidate only
        // after releasing the relations lock, so an invalidation racing
        // this capture is forced to run after our store and clears it —
        // a stale snapshot can never be left masquerading as fresh.
        let mut slot = self.snapshot_cache.write();
        if let Some(cached) = slot.as_ref() {
            tempora_obs::counter("tempora_snapshot_memo_hits_total").inc();
            return Arc::clone(cached);
        }
        tempora_obs::counter("tempora_snapshot_memo_misses_total").inc();
        let sw = tempora_obs::Stopwatch::start();
        let fresh = Arc::new(self.snapshot());
        sw.record(&tempora_obs::histogram("tempora_snapshot_capture_seconds"));
        *slot = Some(Arc::clone(&fresh));
        fresh
    }

    fn invalidate_snapshot(&self) {
        *self.snapshot_cache.write() = None;
    }

    /// Executes a `CREATE TEMPORAL RELATION` statement, creating the
    /// relation with its specialization-selected representation and index.
    ///
    /// The schema first passes through the static analyzer
    /// ([`tempora_analyze::analyze_schema`]); Error-level findings — an
    /// unsatisfiable conjunction, a contradictory ordering, impossible
    /// interval durations — reject the statement with the full diagnostics
    /// (offending declarations and fix-it hint included). Warn/Note
    /// findings do not block creation; surface them via [`Self::lint`].
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Ddl`] on parse/validation failure,
    /// [`DbError::Analysis`] when the analyzer proves the schema broken,
    /// or [`DbError::DuplicateRelation`] on a name clash.
    pub fn execute_ddl(&self, ddl: &str) -> Result<Arc<RelationSchema>, DbError> {
        self.create_relation(ddl, false)
    }

    /// [`Self::execute_ddl`] without the analyzer gate (`--force`): the
    /// relation is created even if every insert is doomed to rejection.
    /// Per-clause validation (bad parameters, stamping mismatches) still
    /// applies.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Ddl`] or [`DbError::DuplicateRelation`].
    pub fn execute_ddl_forced(&self, ddl: &str) -> Result<Arc<RelationSchema>, DbError> {
        self.create_relation(ddl, true)
    }

    fn create_relation(&self, ddl: &str, force: bool) -> Result<Arc<RelationSchema>, DbError> {
        let schema = parse_ddl_unchecked(ddl)?;
        if !force {
            let analysis = analyze_schema(&schema);
            if analysis.has_errors() {
                return Err(DbError::Analysis(analysis.diagnostics));
            }
        }
        {
            let mut relations = self.relations.write();
            if relations.contains_key(schema.name()) {
                return Err(DbError::DuplicateRelation(schema.name().to_string()));
            }
            relations.insert(
                schema.name().to_string(),
                IndexedRelation::new(Arc::clone(&schema), Arc::clone(&self.clock)),
            );
        }
        self.invalidate_snapshot();
        Ok(schema)
    }

    /// Runs the static analyzer over one registered relation's schema.
    #[must_use]
    pub fn lint(&self, relation: &str) -> Option<Analysis> {
        self.schema(relation).map(|s| analyze_schema(&s))
    }

    /// Runs the static analyzer over every registered relation, in name
    /// order.
    #[must_use]
    pub fn lint_all(&self) -> Vec<Analysis> {
        self.relations
            .read()
            .values()
            .map(|r| analyze_schema(r.relation().schema()))
            .collect()
    }

    /// The registered relation names.
    #[must_use]
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.read().keys().cloned().collect()
    }

    /// A point-in-time snapshot of the process-wide metrics registry:
    /// ingest stage timings, compiled-check hit counters, planner
    /// decisions, query operator latencies, vacuum activity (see
    /// `docs/observability.md` for the catalog).
    ///
    /// The registry is process-global — a deployment embedding several
    /// `Database` instances observes their combined totals. Render with
    /// `Display` for humans or
    /// [`to_prometheus`](tempora_obs::MetricsSnapshot::to_prometheus)
    /// for scrapers.
    #[must_use]
    pub fn metrics_snapshot(&self) -> tempora_obs::MetricsSnapshot {
        tempora_obs::snapshot()
    }

    /// The schema of a relation.
    #[must_use]
    pub fn schema(&self, relation: &str) -> Option<Arc<RelationSchema>> {
        self.relations
            .read()
            .get(relation)
            .map(|r| Arc::clone(r.relation().schema()))
    }

    /// Inserts a fact.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRelation`] or a constraint violation.
    pub fn insert(
        &self,
        relation: &str,
        object: ObjectId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Result<ElementId, DbError> {
        let id = {
            let mut relations = self.relations.write();
            let rel = relations
                .get_mut(relation)
                .ok_or_else(|| DbError::UnknownRelation(relation.to_string()))?;
            rel.insert(object, valid, attrs)?
        };
        self.invalidate_snapshot();
        Ok(id)
    }

    /// Logically deletes an element.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRelation`], [`CoreError::NoSuchElement`],
    /// or a deletion-referenced constraint violation.
    pub fn delete(&self, relation: &str, id: ElementId) -> Result<Timestamp, DbError> {
        let tt = {
            let mut relations = self.relations.write();
            let rel = relations
                .get_mut(relation)
                .ok_or_else(|| DbError::UnknownRelation(relation.to_string()))?;
            rel.delete(id)?
        };
        self.invalidate_snapshot();
        Ok(tt)
    }

    /// Modifies an element (logical delete + insert under one transaction,
    /// §2 of the paper).
    ///
    /// # Errors
    ///
    /// As for [`Self::insert`] and [`Self::delete`].
    pub fn modify(
        &self,
        relation: &str,
        id: ElementId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Result<ElementId, DbError> {
        let new_id = {
            let mut relations = self.relations.write();
            let rel = relations
                .get_mut(relation)
                .ok_or_else(|| DbError::UnknownRelation(relation.to_string()))?;
            rel.modify(id, valid, attrs)?
        };
        self.invalidate_snapshot();
        Ok(new_id)
    }

    /// Applies an insertion batch through the sharded ingest pipeline
    /// (see `TemporalRelation::apply_batch`), maintaining the relation's
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRelation`]; per-record constraint
    /// rejections are reported inside the [`BatchReport`], not as an
    /// error.
    pub fn apply_batch(
        &self,
        relation: &str,
        records: Vec<BatchRecord>,
    ) -> Result<BatchReport, DbError> {
        let report = {
            let mut relations = self.relations.write();
            let rel = relations
                .get_mut(relation)
                .ok_or_else(|| DbError::UnknownRelation(relation.to_string()))?;
            rel.apply_batch(records)
        };
        self.invalidate_snapshot();
        Ok(report)
    }

    /// Sets a relation's ingest shard count (used by [`Self::apply_batch`]).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRelation`].
    pub fn set_ingest_shards(&self, relation: &str, shards: usize) -> Result<(), DbError> {
        let mut relations = self.relations.write();
        let rel = relations
            .get_mut(relation)
            .ok_or_else(|| DbError::UnknownRelation(relation.to_string()))?;
        rel.set_ingest_shards(shards);
        Ok(())
    }

    /// Executes a TQL `SELECT` statement on the current state: the
    /// memoized [`Self::latest_snapshot`] answers it, so this and
    /// [`DbSnapshot::query`] are one executor.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Tql`] on parse failure or
    /// [`DbError::UnknownRelation`].
    pub fn query(&self, tql: &str) -> Result<QueryResult, DbError> {
        self.latest_snapshot().query(tql)
    }

    /// Explains how a TQL `SELECT` would run, without executing it: the
    /// chosen access path plus the analyzer's predicate-proof annotation —
    /// an always-false predicate plans an empty scan, an always-true
    /// residual reduces to the currency check (see
    /// [`tempora_query::plan_query_annotated`]).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Tql`] on parse failure or
    /// [`DbError::UnknownRelation`].
    pub fn explain(&self, tql: &str) -> Result<AnnotatedPlan, DbError> {
        let statement = parse_tql(tql)?;
        let relations = self.relations.read();
        let rel = relations
            .get(&statement.relation)
            .ok_or_else(|| DbError::UnknownRelation(statement.relation.clone()))?;
        Ok(rel.explain(statement.query))
    }

    /// A design report for one relation (see [`crate::report`]).
    #[must_use]
    pub fn report(&self, relation: &str) -> Option<String> {
        self.schema(relation)
            .map(|s| crate::report::schema_report(&s))
    }

    /// Declares a transaction-time chain between two relations (the §1
    /// flow-of-facts hook — see [`tempora_core::spec::chain`]):
    /// [`Self::propagate`] will enforce it.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRelation`] if either side is missing, or
    /// an invalid chain parameterization.
    pub fn declare_chain(
        &self,
        upstream: &str,
        downstream: &str,
        chain: ChainSpec,
    ) -> Result<(), DbError> {
        chain.validate()?;
        let relations = self.relations.read();
        for name in [upstream, downstream] {
            if !relations.contains_key(name) {
                return Err(DbError::UnknownRelation(name.to_string()));
            }
        }
        self.chains
            .write()
            .insert((upstream.to_string(), downstream.to_string()), chain);
        Ok(())
    }

    /// Propagates elements from `upstream` into `downstream` (same object,
    /// valid time, and attributes; fresh element surrogates and transaction
    /// times). If a chain is declared for the pair, each element's upstream
    /// storage time is pre-checked against the chain at the current clock
    /// reading — violations abort before anything is written.
    ///
    /// Returns the new downstream element ids, in input order.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRelation`], [`CoreError::NoSuchElement`]
    /// for unknown upstream ids, [`CoreError::Violations`] from the chain
    /// pre-check or the downstream relation's own specializations.
    pub fn propagate(
        &self,
        upstream: &str,
        downstream: &str,
        ids: &[ElementId],
    ) -> Result<Vec<ElementId>, DbError> {
        let chain = self
            .chains
            .read()
            .get(&(upstream.to_string(), downstream.to_string()))
            .copied();
        let mut relations = self.relations.write();
        if !relations.contains_key(downstream) {
            return Err(DbError::UnknownRelation(downstream.to_string()));
        }
        // Collect the facts (and pre-check the chain) before writing.
        let now = self.clock.now();
        let mut staged = Vec::with_capacity(ids.len());
        {
            let up = relations
                .get(upstream)
                .ok_or_else(|| DbError::UnknownRelation(upstream.to_string()))?;
            let granularity = up.relation().schema().granularity();
            for &id in ids {
                let element = up
                    .relation()
                    .get(id)
                    .ok_or(CoreError::NoSuchElement { element: id })?;
                if let Some(chain) = chain {
                    if let Err(detail) = chain.check(element.tt_begin, now, granularity) {
                        return Err(DbError::Core(CoreError::Violations(vec![
                            tempora_core::Violation {
                                spec: chain.to_string(),
                                element: id,
                                tt: now,
                                vt: element.valid.begin(),
                                detail,
                            },
                        ])));
                    }
                }
                staged.push((element.object, element.valid, element.attrs.clone()));
            }
        }
        let down = relations
            .get_mut(downstream)
            .expect("checked above");
        let mut out = Vec::with_capacity(staged.len());
        let mut failure = None;
        for (object, valid, attrs) in staged {
            match down.insert(object, valid, attrs) {
                Ok(id) => out.push(id),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        drop(relations);
        // Even a partially applied propagation wrote elements.
        self.invalidate_snapshot();
        match failure {
            Some(e) => Err(e.into()),
            None => Ok(out),
        }
    }

    /// Runs a closure with read access to a relation (for custom plans or
    /// inspection).
    pub fn with_relation<T>(
        &self,
        relation: &str,
        f: impl FnOnce(&IndexedRelation) -> T,
    ) -> Option<T> {
        self.relations.read().get(relation).map(f)
    }

    /// Dispatches any supported statement — DDL (`CREATE`), DML
    /// (`INSERT`/`DELETE`/`UPDATE`), or TQL (`SELECT`) — the whole system
    /// behind one string.
    ///
    /// # Errors
    ///
    /// Returns the corresponding parse, constraint, or lookup error.
    pub fn execute(&self, statement: &str) -> Result<ExecOutcome, DbError> {
        let first = statement
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        match first.as_str() {
            "CREATE" => Ok(ExecOutcome::Created(self.execute_ddl(statement)?)),
            "SELECT" => Ok(ExecOutcome::Selected(self.query(statement)?)),
            "INSERT" | "DELETE" | "UPDATE" => {
                match crate::dml::parse_dml(statement).map_err(DbError::Ddl)? {
                    crate::dml::DmlStatement::Insert {
                        relation,
                        object,
                        valid,
                        attrs,
                    } => Ok(ExecOutcome::Inserted(
                        self.insert(&relation, object, valid, attrs)?,
                    )),
                    crate::dml::DmlStatement::Delete { relation, element } => {
                        Ok(ExecOutcome::Deleted(self.delete(&relation, element)?))
                    }
                    crate::dml::DmlStatement::Update {
                        relation,
                        element,
                        valid,
                        attrs,
                    } => Ok(ExecOutcome::Updated(
                        self.modify(&relation, element, valid, attrs)?,
                    )),
                }
            }
            _ => Err(DbError::Ddl(DdlError::Syntax {
                expected: "CREATE, SELECT, INSERT, DELETE, or UPDATE".to_string(),
                found: first,
                position: 0,
            })),
        }
    }
}

/// The result of [`Database::execute`].
#[derive(Debug)]
pub enum ExecOutcome {
    /// A relation was created.
    Created(Arc<RelationSchema>),
    /// A fact was inserted; its element surrogate.
    Inserted(ElementId),
    /// An element was logically deleted at this transaction time.
    Deleted(Timestamp),
    /// An element was modified; the new element surrogate.
    Updated(ElementId),
    /// A query ran.
    Selected(QueryResult),
}

impl fmt::Display for ExecOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecOutcome::Created(schema) => write!(f, "created relation {}", schema.name()),
            ExecOutcome::Inserted(id) => write!(f, "inserted {id}"),
            ExecOutcome::Deleted(tt) => write!(f, "deleted at {tt}"),
            ExecOutcome::Updated(id) => write!(f, "updated; new element {id}"),
            ExecOutcome::Selected(result) => {
                writeln!(f, "{}", result.stats)?;
                for e in &result.elements {
                    writeln!(f, "  {e}")?;
                    for (name, value) in &e.attrs {
                        writeln!(f, "    {name} = {value}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("relations", &self.relation_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_time::{ManualClock, TimeDelta};

    fn db_at(secs: i64) -> (Database, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new(Timestamp::from_secs(secs)));
        (Database::new(clock.clone()), clock)
    }

    #[test]
    fn ddl_insert_query_round_trip() {
        let (db, clock) = db_at(100);
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT WITH RETROACTIVE")
            .unwrap();
        assert_eq!(db.relation_names(), vec!["r"]);
        db.insert("r", ObjectId::new(1), Timestamp::from_secs(50), vec![])
            .unwrap();
        clock.advance(TimeDelta::from_secs(10));
        let result = db.query("SELECT FROM r AT 1970-01-01T00:00:50").unwrap();
        assert_eq!(result.stats.returned, 1);
        let current = db.query("SELECT FROM r").unwrap();
        assert_eq!(current.stats.returned, 1);
    }

    #[test]
    fn constraint_violations_surface() {
        let (db, _) = db_at(100);
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT WITH RETROACTIVE")
            .unwrap();
        let err = db
            .insert("r", ObjectId::new(1), Timestamp::from_secs(500), vec![])
            .unwrap_err();
        assert!(matches!(err, DbError::Core(CoreError::Violations(_))));
    }

    #[test]
    fn unknown_and_duplicate_relations() {
        let (db, _) = db_at(0);
        assert!(matches!(
            db.query("SELECT FROM ghost"),
            Err(DbError::UnknownRelation(_))
        ));
        assert!(matches!(
            db.insert("ghost", ObjectId::new(1), Timestamp::EPOCH, vec![]),
            Err(DbError::UnknownRelation(_))
        ));
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT").unwrap();
        assert!(matches!(
            db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT"),
            Err(DbError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn unsatisfiable_schema_rejected_with_diagnostics() {
        let (db, _) = db_at(0);
        let err = db
            .execute_ddl(
                "CREATE TEMPORAL RELATION r (k KEY) AS EVENT
                 WITH DELAYED RETROACTIVE 10s AND EARLY PREDICTIVE 10s",
            )
            .unwrap_err();
        let DbError::Analysis(diagnostics) = &err else {
            panic!("expected analysis rejection, got {err}");
        };
        let d = &diagnostics[0];
        assert_eq!(d.code.as_str(), "TS001");
        // Names both offending declarations and suggests the nearest
        // satisfiable lattice generalization.
        assert!(d.message.contains("delayed retroactive"), "{}", d.message);
        assert!(d.message.contains("early predictive"), "{}", d.message);
        assert!(
            d.hint.as_deref().unwrap().contains("retroactively bounded"),
            "{:?}",
            d.hint
        );
        assert!(err.to_string().contains("TS001"));
        assert!(db.relation_names().is_empty(), "nothing created");
    }

    #[test]
    fn forced_creation_bypasses_the_gate_but_not_enforcement() {
        let (db, clock) = db_at(0);
        let ddl = "CREATE TEMPORAL RELATION r (k KEY) AS EVENT
                   WITH DELAYED RETROACTIVE 10s AND EARLY PREDICTIVE 10s";
        db.execute_ddl_forced(ddl).unwrap();
        assert_eq!(db.relation_names(), vec!["r"]);
        // The constraints remain enforced: every insert is rejected, as
        // the analyzer proved.
        clock.set(Timestamp::from_secs(1_000));
        for vt in [0_i64, 990, 1_000, 1_010, 2_000] {
            assert!(
                db.insert("r", ObjectId::new(1), Timestamp::from_secs(vt), vec![]).is_err(),
                "vt {vt} must be rejected"
            );
        }
        // lint surfaces the same verdict on the live relation.
        let analysis = db.lint("r").unwrap();
        assert!(analysis.has_errors());
        assert!(db.lint("ghost").is_none());
    }

    #[test]
    fn warnings_do_not_block_creation() {
        let (db, _) = db_at(0);
        db.execute_ddl(
            "CREATE TEMPORAL RELATION r (k KEY) AS EVENT
             WITH DELAYED RETROACTIVE 30s AND RETROACTIVE",
        )
        .unwrap();
        let analysis = db.lint("r").unwrap();
        assert!(!analysis.has_errors());
        assert!(analysis.diagnostics.iter().any(|d| d.code.as_str() == "TS005"));
        let all = db.lint_all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].relation, "r");
    }

    #[test]
    fn explain_surfaces_predicate_proofs() {
        let (db, _) = db_at(0);
        db.execute_ddl(
            "CREATE TEMPORAL RELATION r (k KEY) AS EVENT WITH PREDICTIVELY BOUNDED 30s",
        )
        .unwrap();
        // Probing a valid time beyond tt + 30 s is refutable: empty scan.
        let refuted = db
            .explain("SELECT FROM r AT 1970-01-01T00:10:00 AS OF 1970-01-01T00:00:00")
            .unwrap();
        assert_eq!(refuted.plan.strategy_name(), "empty-scan");
        assert!(refuted.proof.as_deref().unwrap().contains("vt − tt"));
        // A contingent probe keeps its real access path.
        let contingent = db
            .explain("SELECT FROM r AT 1970-01-01T00:00:10 AS OF 1970-01-01T00:00:00")
            .unwrap();
        assert_ne!(contingent.plan.strategy_name(), "empty-scan");
        assert!(matches!(
            db.explain("SELECT FROM ghost"),
            Err(DbError::UnknownRelation(_))
        ));
    }

    #[test]
    fn bitemporal_tql_through_database() {
        let (db, clock) = db_at(0);
        db.execute_ddl("CREATE TEMPORAL RELATION audit (k KEY) AS EVENT").unwrap();
        clock.set(Timestamp::from_secs(10));
        let id = db
            .insert("audit", ObjectId::new(1), Timestamp::from_secs(100), vec![])
            .unwrap();
        clock.set(Timestamp::from_secs(20));
        db.modify("audit", id, Timestamp::from_secs(100), vec![(
            AttrName::new("v"),
            Value::Int(2),
        )])
        .unwrap();
        let before = db
            .query("SELECT FROM audit AT 1970-01-01T00:01:40 AS OF 1970-01-01T00:00:15")
            .unwrap();
        assert_eq!(before.stats.returned, 1);
        assert_eq!(before.elements[0].attr("v"), None);
        let after = db
            .query("SELECT FROM audit AT 1970-01-01T00:01:40 AS OF 1970-01-01T00:00:25")
            .unwrap();
        assert_eq!(after.elements[0].attr("v"), Some(&Value::Int(2)));
    }

    #[test]
    fn report_and_debug() {
        let (db, _) = db_at(0);
        db.execute_ddl(
            "CREATE TEMPORAL RELATION r (k KEY) AS EVENT WITH STRONGLY BOUNDED 1h 1h",
        )
        .unwrap();
        let report = db.report("r").unwrap();
        assert!(report.contains("strongly bounded"));
        assert!(db.report("ghost").is_none());
        assert!(format!("{db:?}").contains('r'));
    }

    #[test]
    fn execute_dispatches_all_statement_kinds() {
        let (db, clock) = db_at(0);
        let created = db
            .execute("CREATE TEMPORAL RELATION plant (sensor KEY, temperature VARYING) AS EVENT WITH RETROACTIVE")
            .unwrap();
        assert!(matches!(created, ExecOutcome::Created(_)));
        clock.set(Timestamp::from_secs(100));
        let inserted = db
            .execute("INSERT INTO plant OBJECT 7 VALID 1970-01-01T00:00:50 SET temperature = 19.5")
            .unwrap();
        let ExecOutcome::Inserted(id) = inserted else {
            panic!("expected insert outcome");
        };
        let selected = db.execute("SELECT FROM plant AT 1970-01-01T00:00:50").unwrap();
        match &selected {
            ExecOutcome::Selected(r) => assert_eq!(r.stats.returned, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(selected.to_string().contains("temperature"));
        clock.advance(TimeDelta::from_secs(10));
        let updated = db
            .execute(&format!(
                "UPDATE plant ELEMENT {} VALID 1970-01-01T00:00:55 SET temperature = 20.0",
                id.raw()
            ))
            .unwrap();
        let ExecOutcome::Updated(new_id) = updated else {
            panic!("expected update outcome");
        };
        clock.advance(TimeDelta::from_secs(10));
        let deleted = db
            .execute(&format!("DELETE FROM plant ELEMENT {}", new_id.raw()))
            .unwrap();
        assert!(matches!(deleted, ExecOutcome::Deleted(_)));
        // Unknown verb.
        assert!(matches!(
            db.execute("EXPLODE plant"),
            Err(DbError::Ddl(DdlError::Syntax { .. }))
        ));
    }

    #[test]
    fn database_is_usable_across_threads() {
        let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
        let db = Arc::new(Database::new(clock.clone()));
        for name in ["a", "b", "c", "d"] {
            db.execute_ddl(&format!(
                "CREATE TEMPORAL RELATION {name} (k KEY) AS EVENT"
            ))
            .unwrap();
        }
        clock.set(Timestamp::from_secs(10));
        let mut handles = Vec::new();
        for (t, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..50_u64 {
                    db.insert(
                        name,
                        ObjectId::new(i),
                        Timestamp::from_secs(i64::try_from(t).unwrap()),
                        vec![],
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for name in ["a", "b", "c", "d"] {
            let r = db.query(&format!("SELECT FROM {name}")).unwrap();
            assert_eq!(r.stats.returned, 50, "{name}");
        }
        // Transaction times are globally unique across relations (shared
        // clock).
        let mut all_tts = Vec::new();
        for name in ["a", "b", "c", "d"] {
            db.with_relation(name, |rel| {
                all_tts.extend(rel.relation().iter().map(|e| e.tt_begin));
            });
        }
        let before = all_tts.len();
        all_tts.sort();
        all_tts.dedup();
        assert_eq!(all_tts.len(), before, "shared clock must never repeat");
    }

    #[test]
    fn where_filters_through_database() {
        let (db, clock) = db_at(0);
        db.execute_ddl(
            "CREATE TEMPORAL RELATION plant (sensor KEY, temperature VARYING) AS EVENT",
        )
        .unwrap();
        for (i, sensor) in [7_i64, 7, 9].iter().enumerate() {
            clock.set(Timestamp::from_secs(i64::try_from(i).unwrap() + 1));
            db.insert(
                "plant",
                ObjectId::new(u64::try_from(*sensor).unwrap()),
                Timestamp::from_secs(0),
                vec![(AttrName::new("sensor"), Value::Int(*sensor))],
            )
            .unwrap();
        }
        let all = db.query("SELECT FROM plant").unwrap();
        assert_eq!(all.stats.returned, 3);
        let filtered = db.query("SELECT FROM plant WHERE sensor = 7").unwrap();
        assert_eq!(filtered.stats.returned, 2);
        assert!(filtered.elements.iter().all(|e| e.attr("sensor") == Some(&Value::Int(7))));
        let none = db.query("SELECT FROM plant WHERE sensor = 12").unwrap();
        assert_eq!(none.stats.returned, 0);
    }

    #[test]
    fn chain_propagation_between_relations() {
        use tempora_core::spec::bound::Bound;
        let (db, clock) = db_at(0);
        db.execute_ddl("CREATE TEMPORAL RELATION ops (k KEY) AS EVENT").unwrap();
        db.execute_ddl("CREATE TEMPORAL RELATION warehouse (k KEY) AS EVENT")
            .unwrap();
        // Warehouse loads must lag the operational store by 1 s – 1 h.
        let chain = ChainSpec::propagation(
            Bound::secs(1),
            Bound::Fixed(TimeDelta::from_hours(1)),
        )
        .unwrap();
        db.declare_chain("ops", "warehouse", chain).unwrap();

        clock.set(Timestamp::from_secs(100));
        let id = db
            .insert("ops", ObjectId::new(1), Timestamp::from_secs(50), vec![])
            .unwrap();

        // Too fast: the batch runs immediately (lag < 1 s).
        let err = db.propagate("ops", "warehouse", &[id]).unwrap_err();
        assert!(matches!(err, DbError::Core(CoreError::Violations(_))), "{err}");
        assert_eq!(
            db.query("SELECT FROM warehouse").unwrap().stats.returned,
            0,
            "violating propagation must write nothing"
        );

        // Within the window: propagates, preserving object/valid/attrs.
        clock.advance(TimeDelta::from_mins(10));
        let new_ids = db.propagate("ops", "warehouse", &[id]).unwrap();
        assert_eq!(new_ids.len(), 1);
        let copied = db
            .with_relation("warehouse", |r| r.relation().get(new_ids[0]).cloned())
            .unwrap()
            .unwrap();
        assert_eq!(copied.valid, ValidTime::Event(Timestamp::from_secs(50)));
        assert_eq!(copied.object, ObjectId::new(1));

        // Too stale: next day.
        clock.advance(TimeDelta::from_hours(25));
        let err2 = db.propagate("ops", "warehouse", &[id]).unwrap_err();
        assert!(matches!(err2, DbError::Core(CoreError::Violations(_))));
    }

    #[test]
    fn chain_declaration_errors() {
        use tempora_core::spec::bound::Bound;
        let (db, _) = db_at(0);
        db.execute_ddl("CREATE TEMPORAL RELATION a (k KEY) AS EVENT").unwrap();
        let chain = ChainSpec::propagation(Bound::secs(0), Bound::secs(60)).unwrap();
        assert!(matches!(
            db.declare_chain("a", "ghost", chain),
            Err(DbError::UnknownRelation(_))
        ));
        assert!(matches!(
            db.propagate("ghost", "a", &[]),
            Err(DbError::UnknownRelation(_))
        ));
        // Propagation without a declared chain is allowed (plain copy).
        db.execute_ddl("CREATE TEMPORAL RELATION b (k KEY) AS EVENT").unwrap();
        assert!(db.propagate("a", "b", &[]).unwrap().is_empty());
    }

    #[test]
    fn with_relation_inspection() {
        let (db, clock) = db_at(0);
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT").unwrap();
        clock.set(Timestamp::from_secs(5));
        db.insert("r", ObjectId::new(1), Timestamp::EPOCH, vec![]).unwrap();
        let len = db.with_relation("r", |rel| rel.relation().len()).unwrap();
        assert_eq!(len, 1);
    }
}
