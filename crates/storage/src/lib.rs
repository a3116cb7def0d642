//! # tempora-storage — the bitemporal storage substrate
//!
//! §2 of the paper models a temporal relation as "a sequence of historical
//! states indexed by transaction time", and §2's closing paragraph lists
//! several physical representations the conceptual model admits. This crate
//! implements that substrate:
//!
//! * [`ElementStore`] — the one element store: tuple time-stamping with
//!   an interval transaction stamp per element (the \[Sno87\]-style
//!   representation), logical deletion, and per-object partitions. When
//!   the schema declares valid-time-ordered arrival (degenerate or
//!   sequential relations) the same store is the append-only form §3.1/§3.2
//!   promise ("relations are append-only and elements are entered in
//!   time-stamp order"): it enforces the order and binary-searches valid
//!   time as well as transaction time;
//! * [`AttributeStore`] — attribute-value time-stamping over finite unions
//!   of intervals, §2's last listed representation (\[Gad88\]'s temporal
//!   elements), with the homogeneity invariant;
//! * [`TemporalRelation`] — the façade that couples a schema, the
//!   constraint engine, a transaction clock, and the element store:
//!   insert / logical delete / modify (= delete + insert, §2), rollback and
//!   valid-timeslice reads, and specialization-aware vacuuming;
//! * [`ingest`] — batched, sharded ingest: update batches are partitioned
//!   by object surrogate and constraint-checked in parallel when the
//!   declared specializations are partition-local (§3.2's per-surrogate
//!   basis), via [`TemporalRelation::apply_batch`];
//! * [`chunks`] — the chunked copy-on-write element storage the store sits
//!   on: because transaction time is append-only, a reader pinned at tick
//!   `t` sees an immutable prefix, and
//!   [`TemporalRelation::snapshot_elements`] hands that prefix out as a
//!   cheap [`ElementChunks`] view that never blocks (or is blocked by)
//!   writers. Immutable index segments built when a chunk seals (valid
//!   time and object, keyed by position) travel with the view, so pinned
//!   probes stay binary searches.
//!
//! §2 also lists "a backlog relation of insertion, modification, and
//! deletion operations" (\[JMRS90\]). In this system that operation log is
//! the write-ahead log of `tempora-wal`: replaying it reconstructs every
//! historical state, and rollback to a transaction time is a pinned
//! snapshot of the element store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribute_store;
pub mod chunks;
pub mod ingest;
mod metrics;
mod relation;
mod store;
pub mod vacuum;

pub use attribute_store::{AttributeHistory, AttributeStore};
pub use chunks::{ChunkedElements, ElementChunks, VtKey, CHUNK_CAP};
pub use ingest::{BatchRecord, BatchReport};
pub use relation::{Enforcement, RelationStats, TemporalRelation};
pub use store::ElementStore;
