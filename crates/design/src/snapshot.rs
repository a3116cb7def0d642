//! Database-wide snapshots: an immutable view of every relation pinned at
//! one transaction tick.
//!
//! [`Database::snapshot`] captures the current state in O(chunks) per
//! relation — sealed storage chunks and their index segments are shared
//! by `Arc`, only the mutable tails are copied — and the returned
//! [`DbSnapshot`] answers TQL queries through the lock-free
//! [`SnapshotRelation`] executor. Concurrent writers
//! proceed unimpeded: transaction time is append-only, so a snapshot is a
//! prefix index plus a pin, never a data copy.
//!
//! ```
//! use std::sync::Arc;
//! use tempora_design::Database;
//! use tempora_time::{ManualClock, Timestamp};
//! use tempora_core::ObjectId;
//!
//! let clock = Arc::new(ManualClock::new(Timestamp::from_secs(10)));
//! let db = Database::new(clock.clone());
//! db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT WITH RETROACTIVE").unwrap();
//! db.insert("r", ObjectId::new(1), Timestamp::from_secs(5), vec![]).unwrap();
//! let snap = db.snapshot();
//! clock.set(Timestamp::from_secs(20));
//! db.insert("r", ObjectId::new(2), Timestamp::from_secs(15), vec![]).unwrap();
//! // The snapshot still sees exactly one fact.
//! assert_eq!(snap.query("SELECT FROM r").unwrap().stats.returned, 1);
//! assert_eq!(db.query("SELECT FROM r").unwrap().stats.returned, 2);
//! ```

use std::collections::BTreeMap;

use tempora_query::{parse_tql, QueryResult, SnapshotRelation};
use tempora_time::Timestamp;

use crate::database::DbError;

/// An immutable view of a whole database pinned at one transaction tick.
///
/// Every query replays against the transaction-time prefix `tt ≤ pin`:
/// elements inserted after the pin are invisible, and deletions stamped
/// after the pin are unwound (the element reads as current). The result is
/// byte-identical to dumping the prefix and querying the restored copy —
/// the concurrent-serving differential suite asserts exactly that.
#[derive(Debug)]
pub struct DbSnapshot {
    pin: Timestamp,
    relations: BTreeMap<String, SnapshotRelation>,
}

impl DbSnapshot {
    pub(crate) fn assemble(
        pin: Timestamp,
        relations: BTreeMap<String, SnapshotRelation>,
    ) -> Self {
        DbSnapshot { pin, relations }
    }

    /// The transaction tick this snapshot is pinned at.
    #[must_use]
    pub fn pin(&self) -> Timestamp {
        self.pin
    }

    /// The captured relation names, in name order.
    #[must_use]
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// The pinned view of one relation.
    #[must_use]
    pub fn relation(&self, name: &str) -> Option<&SnapshotRelation> {
        self.relations.get(name)
    }

    /// Executes a TQL `SELECT` against the pinned view, lock-free on the
    /// captured chunks and their index segments. This is the one TQL
    /// executor: [`Database::query`](crate::Database::query) runs it on
    /// the latest snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Tql`] on parse failure or
    /// [`DbError::UnknownRelation`] if the relation did not exist at
    /// capture time.
    pub fn query(&self, tql: &str) -> Result<QueryResult, DbError> {
        let statement = parse_tql(tql)?;
        let rel = self
            .relations
            .get(&statement.relation)
            .ok_or_else(|| DbError::UnknownRelation(statement.relation.clone()))?;
        Ok(statement.filter(rel.execute(statement.query)))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tempora_core::{AttrName, ElementId, ObjectId, Value};
    use tempora_time::{ManualClock, Timestamp, TransactionClock};

    use crate::database::Database;
    use crate::dump::{dump_snapshot, restore};

    fn seeded() -> (Database, Arc<ManualClock>, Vec<ElementId>) {
        let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
        let db = Database::new(clock.clone());
        db.execute_ddl(
            "CREATE TEMPORAL RELATION plant (sensor KEY, temperature VARYING)
             AS EVENT WITH RETROACTIVE",
        )
        .unwrap();
        let mut ids = Vec::new();
        for i in 0..40_i64 {
            clock.set(Timestamp::from_secs(10 + i));
            ids.push(
                db.insert(
                    "plant",
                    ObjectId::new(u64::try_from(i % 5).unwrap()),
                    Timestamp::from_secs(i),
                    vec![(AttrName::new("temperature"), Value::Int(i))],
                )
                .unwrap(),
            );
        }
        (db, clock, ids)
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes_and_deletes() {
        let (db, clock, ids) = seeded();
        let snap = db.snapshot();
        let live_before = db.query("SELECT FROM plant").unwrap().stats.returned;

        clock.set(Timestamp::from_secs(100));
        db.delete("plant", ids[0]).unwrap();
        clock.set(Timestamp::from_secs(101));
        db.insert(
            "plant",
            ObjectId::new(9),
            Timestamp::from_secs(99),
            vec![],
        )
        .unwrap();

        let pinned = snap.query("SELECT FROM plant").unwrap();
        assert_eq!(pinned.stats.returned, live_before, "snapshot unmoved");
        assert!(pinned.elements.iter().any(|e| e.id == ids[0]), "delete unwound");
        let live = db.query("SELECT FROM plant").unwrap();
        assert_eq!(live.stats.returned, live_before, "one delete + one insert");
        assert!(live.elements.iter().all(|e| e.id != ids[0]));
    }

    #[test]
    fn snapshot_at_a_past_pin_equals_the_snapshot_taken_then() {
        let (db, clock, ids) = seeded();
        let pin = clock.now();
        let taken_then = db.snapshot();

        clock.set(Timestamp::from_secs(200));
        db.delete("plant", ids[3]).unwrap();
        clock.set(Timestamp::from_secs(201));
        db.insert("plant", ObjectId::new(7), Timestamp::from_secs(150), vec![])
            .unwrap();

        let reconstructed = db.snapshot_at(pin);
        assert_eq!(reconstructed.pin(), taken_then.pin());
        for tql in [
            "SELECT FROM plant",
            "SELECT FROM plant AT 1970-01-01T00:00:20",
            "SELECT FROM plant AS OF 1970-01-01T00:00:30",
            "SELECT FROM plant HISTORY OF 2",
            "SELECT FROM plant WHERE temperature = 12",
        ] {
            let a = taken_then.query(tql).unwrap();
            let b = reconstructed.query(tql).unwrap();
            assert_eq!(a.elements, b.elements, "{tql}");
        }
    }

    #[test]
    fn dump_of_a_snapshot_restores_to_the_pinned_state() {
        let (db, clock, ids) = seeded();
        clock.set(Timestamp::from_secs(60));
        db.delete("plant", ids[1]).unwrap();
        let snap = db.snapshot();

        // Writes after the pin must not appear in the snapshot's dump.
        clock.set(Timestamp::from_secs(61));
        db.insert("plant", ObjectId::new(8), Timestamp::from_secs(55), vec![])
            .unwrap();

        let text = dump_snapshot(&snap);
        let restored = restore(
            Arc::new(ManualClock::new(Timestamp::from_secs(0))),
            &text,
        )
        .unwrap();
        for tql in [
            "SELECT FROM plant",
            "SELECT FROM plant AS OF 1970-01-01T00:00:45",
            "SELECT FROM plant AT 1970-01-01T00:00:25",
        ] {
            let from_snapshot = snap.query(tql).unwrap();
            let from_restore = restored.query(tql).unwrap();
            assert_eq!(
                from_snapshot.elements.len(),
                from_restore.elements.len(),
                "{tql}"
            );
            // Replayed surrogates are reassigned in insertion order, which
            // the seed preserves, so element-by-element comparison holds.
            for (a, b) in from_snapshot.elements.iter().zip(&from_restore.elements) {
                assert_eq!(a.object, b.object, "{tql}");
                assert_eq!(a.valid, b.valid, "{tql}");
                assert_eq!(a.tt_begin, b.tt_begin, "{tql}");
                assert_eq!(a.tt_end, b.tt_end, "{tql}");
                assert_eq!(a.attrs, b.attrs, "{tql}");
            }
        }
    }

    #[test]
    fn latest_snapshot_is_memoized_until_a_write() {
        let (db, clock, ids) = seeded();
        let a = db.latest_snapshot();
        let b = db.latest_snapshot();
        assert!(Arc::ptr_eq(&a, &b), "no write between calls: shared capture");

        clock.set(Timestamp::from_secs(300));
        db.delete("plant", ids[2]).unwrap();
        let c = db.latest_snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "write invalidates the cache");
        assert_eq!(
            c.query("SELECT FROM plant").unwrap().stats.returned,
            a.query("SELECT FROM plant").unwrap().stats.returned - 1,
            "fresh capture sees the delete"
        );
    }

    #[test]
    fn unknown_relation_and_parse_errors_surface() {
        let (db, _, _) = seeded();
        let snap = db.snapshot();
        assert!(snap.query("SELECT FROM ghost").is_err());
        assert!(snap.query("SELEKT FROM plant").is_err());
        assert_eq!(snap.relation_names(), vec!["plant"]);
        assert!(snap.relation("plant").is_some());
        assert!(snap.relation("ghost").is_none());
    }
}
