//! Cached handles for the storage-layer metrics.
//!
//! Every function lazily registers its metric in the global
//! `tempora-obs` registry on first use and caches the `Arc` handle in a
//! `OnceLock`, so the hot paths (batch admission and application) pay a
//! single relaxed atomic load per recording instead of a registry
//! lookup. The full catalog with meanings lives in
//! `docs/observability.md`.

use std::sync::{Arc, OnceLock};

use tempora_obs::{Counter, Gauge, Histogram};

macro_rules! cached_metric {
    ($fn_name:ident, $ty:ty, $make:expr) => {
        pub(crate) fn $fn_name() -> &'static Arc<$ty> {
            static HANDLE: OnceLock<Arc<$ty>> = OnceLock::new();
            HANDLE.get_or_init(|| $make)
        }
    };
}

cached_metric!(
    records_accepted,
    Counter,
    tempora_obs::counter_with("tempora_ingest_records_total", "outcome", "accepted")
);
cached_metric!(
    records_rejected,
    Counter,
    tempora_obs::counter_with("tempora_ingest_records_total", "outcome", "rejected")
);
cached_metric!(
    batches_parallel,
    Counter,
    tempora_obs::counter_with("tempora_ingest_batches_total", "mode", "parallel")
);
cached_metric!(
    batches_sequential,
    Counter,
    tempora_obs::counter_with("tempora_ingest_batches_total", "mode", "sequential")
);
cached_metric!(
    stage_stamp,
    Histogram,
    tempora_obs::histogram_with("tempora_ingest_stage_seconds", "stage", "stamp")
);
cached_metric!(
    stage_check,
    Histogram,
    tempora_obs::histogram_with("tempora_ingest_stage_seconds", "stage", "check")
);
cached_metric!(
    stage_apply,
    Histogram,
    tempora_obs::histogram_with("tempora_ingest_stage_seconds", "stage", "apply")
);
cached_metric!(
    shard_check,
    Histogram,
    tempora_obs::histogram("tempora_ingest_shard_check_seconds")
);
cached_metric!(
    ingest_shards,
    Gauge,
    tempora_obs::gauge("tempora_ingest_shards")
);
cached_metric!(
    vacuum_runs,
    Counter,
    tempora_obs::counter("tempora_vacuum_runs_total")
);
cached_metric!(
    vacuum_reclaimed,
    Counter,
    tempora_obs::counter("tempora_vacuum_reclaimed_total")
);
