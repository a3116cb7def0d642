//! # tempora-query — queries, plans, and the specialization-driven optimizer
//!
//! §1 of the paper distinguishes three query classes on a temporal
//! relation: **current** queries (the only kind conventional systems
//! support), **historical** queries ("facts about the history of objects
//! from the modeled reality" — valid timeslices), and **rollback** queries
//! ("facts as stored in the database at some point in the past"). §1 and §4
//! promise that declared specializations enable better "query processing
//! strategies"; this crate makes that concrete:
//!
//! * [`Query`] — the three query classes plus range and life-line forms;
//! * [`Plan`] — physical strategies: full scan, transaction-prefix scan,
//!   binary search on append order, tt-window probe (the
//!   [`tempora_index::tt_proxy`] payoff), point-index probe, interval-tree
//!   stab;
//! * [`plan_query`] — the optimizer: picks a plan from the schema's
//!   declared specializations (via [`tempora_index::select_index`]);
//! * [`IndexedRelation`] — a [`tempora_storage::TemporalRelation`] with
//!   its selected index maintained on every update, and
//!   [`IndexedRelation::execute`] which runs plans and reports
//!   [`ExecStats`] (elements examined vs. returned — the asymptotic win is
//!   visible, not just wall-clock);
//! * [`SnapshotRelation`] — a lock-free executor over an immutable chunk
//!   view pinned at a transaction tick: the read path concurrent serving
//!   uses, answering every query form as of the pin without blocking (or
//!   being blocked by) ingest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod optimizer;
mod plan;
mod snapshot;
pub mod timeline;
pub mod tql;

pub use exec::{ExecStats, IndexedRelation, QueryResult};
pub use optimizer::{plan_query, plan_query_annotated};
pub use plan::{AnnotatedPlan, Plan, Query, Residual};
pub use snapshot::SnapshotRelation;
pub use tql::{parse_tql, TqlError, TqlStatement};
