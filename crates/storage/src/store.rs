//! The element store: every element of a relation, in transaction-time order.
//!
//! §2 says the model of "a sequence of historical states" implies no
//! particular physical representation. This store holds elements as tuples
//! with an interval transaction stamp `[tt_b, tt_d)` (the \[Sno87\]-style
//! representation): arrival order is transaction-time order, deletion is
//! logical (it sets `tt_d`), so rollback reads are binary searches over an
//! append-only sequence.
//!
//! One ordering property changes what the store can promise. §3.1: "a
//! degenerate temporal relation can be advantageously treated as a rollback
//! relation due to the fact that relations are append-only and elements are
//! entered in time-stamp order"; §3.2 extends this to globally sequential
//! relations. When the schema declares such an ordering
//! ([`RelationSchema::is_degenerate`] or [`RelationSchema::is_vt_ordered`]),
//! arrival order is *also* valid-time order: the store enforces
//! non-decreasing `vt_begin` on insert, answers valid-time ranges by binary
//! search ([`ElementStore::slice_by_vt_begin`]), and never reclaims (its
//! point is full history retention).
//!
//! Elements live in copy-on-write chunks ([`crate::chunks`]) so a pinned
//! snapshot shares storage with the live store instead of copying it.

use std::collections::HashMap;

use tempora_time::Timestamp;

use tempora_core::{CoreError, Element, ElementId, ObjectId, RelationSchema};

use crate::chunks::{ChunkedElements, ElementChunks, VtKey};

/// Tuple-time-stamped element storage in arrival (transaction-time) order.
///
/// Invariants (maintained by construction): elements are stored in strictly
/// increasing `tt_b` order; each element surrogate appears exactly once; a
/// logically deleted element has `tt_d > tt_b`; in a valid-time-ordered
/// store, `vt_begin` is non-decreasing in arrival order.
#[derive(Debug, Clone)]
pub struct ElementStore {
    /// All elements ever stored, in `tt_b` order (append-only; deletion is
    /// logical). Copy-on-write chunks so snapshots share storage with the
    /// live store.
    elements: ChunkedElements,
    /// Element surrogate → position in `elements`, so point lookups and
    /// logical deletion stay O(1) instead of scanning — delete-heavy
    /// workloads (a served database's UPDATE/DELETE traffic) would
    /// otherwise go quadratic.
    by_id: HashMap<ElementId, usize>,
    /// Whether the schema guarantees valid-time-ordered arrival.
    vt_ordered: bool,
    /// Elements examined while locating delete targets (cumulative).
    /// With the `by_id` map each delete examines exactly one element; a
    /// regression to scanning shows up here as O(position) growth.
    locate_probes: u64,
}

impl ElementStore {
    /// An empty store for a relation with the given schema. The store is
    /// valid-time ordered exactly when the schema declares the relation
    /// degenerate or globally sequential / non-decreasing.
    #[must_use]
    pub fn new(schema: &RelationSchema) -> Self {
        ElementStore {
            elements: ChunkedElements::new(VtKey::for_schema(schema)),
            by_id: HashMap::new(),
            vt_ordered: schema.is_degenerate() || schema.is_vt_ordered(),
            locate_probes: 0,
        }
    }

    /// Whether arrival order is also valid-time order (the append-only
    /// representation §3.1/§3.2 promise for ordered relations).
    #[must_use]
    pub fn is_vt_ordered(&self) -> bool {
        self.vt_ordered
    }

    /// Number of elements ever stored (including logically deleted ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the store has never been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Appends a new current element.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ElementMismatch`] if the element surrogate is
    /// already present, `tt_b` does not exceed the last stored `tt_b`
    /// (transaction times are unique and monotone, §2), the element is
    /// already deleted, or — in a valid-time-ordered store — its valid
    /// begin regresses below the last stored one (the schema promised an
    /// ordered relation; a violation here means the constraint engine was
    /// bypassed).
    pub fn insert(&mut self, mut element: Element) -> Result<(), CoreError> {
        let mismatch = |reason: String| CoreError::ElementMismatch {
            element: element.id,
            reason,
        };
        if self.by_id.contains_key(&element.id) {
            return Err(mismatch("element surrogate already stored".to_string()));
        }
        if let Some(last) = self.elements.last() {
            if element.tt_begin <= last.tt_begin {
                return Err(mismatch(format!(
                    "tt_b {} not after last stored tt_b {}",
                    element.tt_begin, last.tt_begin
                )));
            }
            if self.vt_ordered && element.valid.begin() < last.valid.begin() {
                return Err(mismatch(format!(
                    "vt begin {} regresses below {} — append-only storage requires an ordered relation",
                    element.valid.begin(),
                    last.valid.begin()
                )));
            }
        }
        if element.tt_end.is_some() {
            return Err(mismatch(
                "newly inserted elements must be current (tt_d unset)".to_string(),
            ));
        }
        // Attribute vectors built by `push` (parsed DML, WAL replay, dump
        // restore) carry spare capacity that would live as long as the
        // element. Copy them to an exact-size allocation rather than
        // shrinking in place, which would strand the freed tail of every
        // block as a heap fragment.
        if element.attrs.capacity() > element.attrs.len() {
            element.attrs = element.attrs.to_vec();
        }
        self.by_id.insert(element.id, self.elements.len());
        self.elements.push(element);
        Ok(())
    }

    /// Logically deletes an element at transaction time `tt_d` (O(1)
    /// through the id→position map; the touched chunk is copied first if a
    /// snapshot shares it).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchElement`] if the surrogate is unknown or
    /// already deleted, [`CoreError::ElementMismatch`] if `tt_d ≤ tt_b`.
    pub fn delete(&mut self, id: ElementId, tt_d: Timestamp) -> Result<(), CoreError> {
        let index = *self
            .by_id
            .get(&id)
            .ok_or(CoreError::NoSuchElement { element: id })?;
        self.locate_probes += 1;
        let element = self
            .elements
            .get_mut(index)
            .ok_or(CoreError::NoSuchElement { element: id })?;
        if element.tt_end.is_some() {
            return Err(CoreError::NoSuchElement { element: id });
        }
        if tt_d <= element.tt_begin {
            return Err(CoreError::ElementMismatch {
                element: id,
                reason: format!("tt_d {tt_d} must exceed tt_b {}", element.tt_begin),
            });
        }
        element.tt_end = Some(tt_d);
        Ok(())
    }

    /// The element with the given surrogate, if ever stored.
    #[must_use]
    pub fn get(&self, id: ElementId) -> Option<&Element> {
        self.by_id.get(&id).and_then(|&i| self.elements.get(i))
    }

    /// All elements in `tt_b` order (including logically deleted ones).
    pub fn iter(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter()
    }

    /// Elements current *now* (not logically deleted).
    pub fn iter_current(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter().filter(|e| e.is_current())
    }

    /// Elements of the historical state at transaction time `tt` — the
    /// rollback read (§1's third query class): every element with
    /// `tt ∈ [tt_b, tt_d)`. Binary-searches the insertion horizon, then
    /// filters deletions.
    pub fn iter_at(&self, tt: Timestamp) -> impl Iterator<Item = &Element> + '_ {
        let end = self.elements.partition_point(|e| e.tt_begin <= tt);
        self.elements.range(0..end).filter(move |e| e.existed_at(tt))
    }

    /// Every element ever stored for one object, in insertion order —
    /// the full life-line including logically deleted elements (the
    /// per-surrogate partition, §2/§3, read from the chunks' object index).
    pub fn iter_object_history(&self, object: ObjectId) -> impl Iterator<Item = &Element> + '_ {
        self.elements
            .object_positions(object)
            .into_iter()
            .filter_map(|p| self.elements.get(p))
    }

    /// Elements with `tt_b` in the inclusive window `[lo, hi]` — a binary-
    /// searched contiguous run of the transaction-time order, the probe the
    /// tt-proxy strategy issues.
    pub fn tt_range(&self, lo: Timestamp, hi: Timestamp) -> impl Iterator<Item = &Element> + '_ {
        let start = self.elements.partition_point(|e| e.tt_begin < lo);
        let end = self.elements.partition_point(|e| e.tt_begin <= hi);
        self.elements.range(start..end)
    }

    /// Elements whose valid begin lies in `[from, to)` — a contiguous run
    /// found by binary search, the payoff of the ordering invariant.
    /// `None` when the store is not valid-time ordered.
    pub fn slice_by_vt_begin(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> Option<impl Iterator<Item = &Element> + '_> {
        if !self.vt_ordered {
            return None;
        }
        let lo = self.elements.partition_point(|e| e.valid.begin() < from);
        let hi = self.elements.partition_point(|e| e.valid.begin() < to);
        Some(self.elements.range(lo..hi))
    }

    /// An immutable chunk view of the store's current contents (see
    /// [`ChunkedElements::snapshot`]): sealed chunks shared by pointer,
    /// the open tail copied.
    #[must_use]
    pub fn snapshot(&self) -> ElementChunks {
        self.elements.snapshot()
    }

    /// Number of elements current now.
    #[must_use]
    pub fn current_len(&self) -> usize {
        self.iter_current().count()
    }

    /// Cumulative count of elements examined while locating delete
    /// targets. With the id→position map each delete examines exactly
    /// one element, so this advances by one per attempted delete of a
    /// known surrogate — the observable the delete-path complexity
    /// regression test pins down.
    #[must_use]
    pub fn locate_probes(&self) -> u64 {
        self.locate_probes
    }

    /// Physically removes logically deleted elements the predicate
    /// rejects. Current elements are always kept — vacuuming must never
    /// drop current facts. Returns the number reclaimed; always 0 on a
    /// valid-time-ordered store, whose point is full history retention.
    ///
    /// This is the hook the specialization-aware vacuum (see
    /// [`crate::vacuum`]) uses; calling it directly with an arbitrary
    /// predicate is allowed but forfeits rollback fidelity for the
    /// reclaimed range, so the caller decides the retention policy.
    pub fn reclaim(&mut self, mut keep: impl FnMut(&Element) -> bool) -> usize {
        if self.vt_ordered {
            return 0;
        }
        let before = self.elements.len();
        let kept: Vec<Element> = self
            .elements
            .iter()
            .filter(|e| e.is_current() || keep(e))
            .cloned()
            .collect();
        if kept.len() != before {
            self.by_id.clear();
            for (i, e) in kept.iter().enumerate() {
                self.by_id.insert(e.id, i);
            }
            self.elements = ChunkedElements::from_vec(self.elements.vt_key(), kept);
        }
        before - self.elements.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::spec::interevent::OrderingSpec;
    use tempora_core::{Basis, Stamping, ValidTime};

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn el(id: u64, obj: u64, vt: i64, tt: i64) -> Element {
        Element::new(
            ElementId::new(id),
            ObjectId::new(obj),
            ValidTime::Event(ts(vt)),
            ts(tt),
        )
    }

    /// A store for a general relation: tuple time-stamping, any arrival
    /// order in valid time.
    fn unordered() -> ElementStore {
        ElementStore::new(&RelationSchema::builder("r", Stamping::Event).build().unwrap())
    }

    /// A store for a globally sequential relation: valid-time ordered.
    fn ordered() -> ElementStore {
        let schema = RelationSchema::builder("s", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        ElementStore::new(&schema)
    }

    #[test]
    fn insert_get_iterate() {
        let mut store = unordered();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.insert(el(2, 2, 6, 11)).unwrap();
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.get(ElementId::new(1)).unwrap().tt_begin, ts(10));
        assert_eq!(store.iter().count(), 2);
        assert_eq!(store.current_len(), 2);
    }

    #[test]
    fn duplicate_and_out_of_order_rejected() {
        let mut store = unordered();
        store.insert(el(1, 1, 5, 10)).unwrap();
        assert!(store.insert(el(1, 1, 6, 11)).is_err());
        assert!(store.insert(el(2, 1, 6, 10)).is_err()); // tt not increasing
        assert!(store.insert(el(3, 1, 6, 9)).is_err());
        // An unordered store accepts valid-time regressions.
        store.insert(el(4, 1, 1, 12)).unwrap();
    }

    #[test]
    fn stored_attributes_hold_no_spare_capacity() {
        let mut store = unordered();
        let mut e = el(1, 1, 5, 10);
        e.attrs = Vec::with_capacity(8);
        e.attrs.push((tempora_core::AttrName::new("v"), tempora_core::Value::Int(1)));
        store.insert(e).unwrap();
        let attrs = &store.get(ElementId::new(1)).unwrap().attrs;
        assert_eq!((attrs.len(), attrs.capacity()), (1, 1));
    }

    #[test]
    fn precompleted_element_rejected() {
        for mut store in [unordered(), ordered()] {
            let mut e = el(1, 1, 5, 10);
            e.tt_end = Some(ts(20));
            assert!(store.insert(e).is_err());
        }
    }

    #[test]
    fn logical_delete() {
        let mut store = unordered();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.delete(ElementId::new(1), ts(20)).unwrap();
        assert_eq!(store.current_len(), 0);
        assert_eq!(store.len(), 1); // still present for rollback
        // Double delete and unknown ids fail.
        assert!(store.delete(ElementId::new(1), ts(30)).is_err());
        assert!(store.delete(ElementId::new(9), ts(30)).is_err());
    }

    #[test]
    fn delete_before_insert_rejected() {
        let mut store = unordered();
        store.insert(el(1, 1, 5, 10)).unwrap();
        assert!(store.delete(ElementId::new(1), ts(10)).is_err());
        assert!(store.delete(ElementId::new(1), ts(5)).is_err());
    }

    #[test]
    fn rollback_read() {
        let mut store = unordered();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.insert(el(2, 1, 6, 20)).unwrap();
        store.delete(ElementId::new(1), ts(30)).unwrap();
        store.insert(el(3, 1, 7, 40)).unwrap();

        let at = |tt: i64| -> Vec<u64> {
            let mut v: Vec<u64> = store.iter_at(ts(tt)).map(|e| e.id.raw()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(at(5), Vec::<u64>::new());
        assert_eq!(at(10), vec![1]);
        assert_eq!(at(25), vec![1, 2]);
        assert_eq!(at(30), vec![2]); // deletion effective at tt 30
        assert_eq!(at(45), vec![2, 3]);
    }

    #[test]
    fn per_object_partition() {
        for mut store in [unordered(), ordered()] {
            store.insert(el(1, 1, 5, 10)).unwrap();
            store.insert(el(2, 2, 6, 11)).unwrap();
            store.insert(el(3, 1, 7, 12)).unwrap();
            let current = |store: &ElementStore| -> Vec<u64> {
                store
                    .iter_object_history(ObjectId::new(1))
                    .filter(|e| e.is_current())
                    .map(|e| e.id.raw())
                    .collect()
            };
            assert_eq!(current(&store), vec![1, 3]);
            store.delete(ElementId::new(1), ts(20)).unwrap();
            assert_eq!(current(&store), vec![3]);
            assert_eq!(store.iter_object_history(ObjectId::new(1)).count(), 2);
        }
    }

    #[test]
    fn reclaim_keeps_current() {
        let mut store = unordered();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.insert(el(2, 1, 6, 20)).unwrap();
        store.delete(ElementId::new(1), ts(30)).unwrap();
        // Try to reclaim everything: only the deleted element goes.
        let n = store.reclaim(|_| false);
        assert_eq!(n, 1);
        assert_eq!(store.len(), 1);
        assert!(store.get(ElementId::new(1)).is_none());
        assert!(store.get(ElementId::new(2)).is_some());

        // An ordered store retains its full history.
        let mut log = ordered();
        log.insert(el(1, 1, 5, 10)).unwrap();
        log.delete(ElementId::new(1), ts(30)).unwrap();
        assert_eq!(log.reclaim(|_| false), 0);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn append_enforces_both_orders() {
        let mut log = ordered();
        log.insert(el(1, 1, 10, 10)).unwrap();
        log.insert(el(2, 1, 10, 11)).unwrap(); // equal vt allowed
        log.insert(el(3, 1, 12, 12)).unwrap();
        assert!(log.insert(el(4, 1, 11, 13)).is_err()); // vt regression
        assert!(log.insert(el(5, 1, 20, 12)).is_err()); // tt regression
        assert!(log.insert(el(3, 1, 20, 13)).is_err()); // duplicate surrogate
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn vt_slice_binary_search() {
        let mut log = ordered();
        for i in 0..100_i64 {
            log.insert(el(u64::try_from(i).unwrap(), 1, i * 10, i * 10 + 1)).unwrap();
        }
        let run: Vec<&Element> = log.slice_by_vt_begin(ts(200), ts(300)).unwrap().collect();
        assert_eq!(run.len(), 10);
        assert_eq!(run[0].valid.begin(), ts(200));
        assert_eq!(run[9].valid.begin(), ts(290));
        assert_eq!(log.slice_by_vt_begin(ts(5_000), ts(6_000)).unwrap().count(), 0);
        // Without the ordering there is no run to search.
        assert!(unordered().slice_by_vt_begin(ts(0), ts(1)).is_none());
    }

    #[test]
    fn rollback_prefix() {
        let mut log = ordered();
        log.insert(el(1, 1, 10, 10)).unwrap();
        log.insert(el(2, 1, 20, 20)).unwrap();
        log.delete(ElementId::new(1), ts(25)).unwrap();
        assert_eq!(log.iter_at(ts(15)).count(), 1);
        assert_eq!(log.iter_at(ts(20)).count(), 2);
        assert_eq!(log.iter_at(ts(25)).count(), 1);
        assert_eq!(log.iter_at(ts(5)).count(), 0);
    }

    #[test]
    fn delete_errors() {
        let mut log = ordered();
        log.insert(el(1, 1, 10, 10)).unwrap();
        assert!(log.delete(ElementId::new(2), ts(20)).is_err());
        assert!(log.delete(ElementId::new(1), ts(10)).is_err());
        log.delete(ElementId::new(1), ts(20)).unwrap();
        assert!(log.delete(ElementId::new(1), ts(30)).is_err());
    }

    #[test]
    fn get_by_id() {
        let mut log = ordered();
        log.insert(el(7, 1, 10, 10)).unwrap();
        assert!(log.get(ElementId::new(7)).is_some());
        assert!(log.get(ElementId::new(8)).is_none());
    }

    #[test]
    fn delete_locates_in_constant_probes() {
        // Regression test for the delete-path complexity fix: locating
        // the delete target must not scan the store. Deleting the *last*
        // element of a large store examines one element, not `len`.
        let n = 4_096_i64;
        for mut store in [unordered(), ordered()] {
            for i in 0..n {
                store.insert(el(u64::try_from(i).unwrap(), 1, i, i + 1)).unwrap();
            }
            let before = store.locate_probes();
            let last = ElementId::new(u64::try_from(n - 1).unwrap());
            store.delete(last, ts(n + 10)).unwrap();
            let probes = store.locate_probes() - before;
            assert!(
                probes <= 2,
                "deleting the last of {n} elements examined {probes} elements — \
                 the id→position map is not being used"
            );
            // And the deletion itself is equivalent to what a scan would do.
            assert!(store.get(last).unwrap().tt_end.is_some());
        }
    }

    #[test]
    fn snapshot_isolated_from_deletes() {
        for mut store in [unordered(), ordered()] {
            for i in 0..2_000_i64 {
                store.insert(el(u64::try_from(i).unwrap(), 1, i, i + 1)).unwrap();
            }
            let snap = store.snapshot();
            store.delete(ElementId::new(5), ts(5_000)).unwrap();
            // The live store sees the delete; the snapshot does not.
            assert!(store.get(ElementId::new(5)).unwrap().tt_end.is_some());
            assert_eq!(snap.get(5).unwrap().tt_end, None);
            assert_eq!(snap.len(), 2_000);
        }
    }
}
